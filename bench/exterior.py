"""Exact exterior algebras on degree-1 generators, for making inputs.

The benchmark generates its inputs without importing adamsbar, so that
set-up time and the inputs themselves do not change when the program
does.  Every algebra the generators need (E1, E3 and the
generalized-nilpotent totals over E1) is free on degree-1 generators,
hence an exterior algebra; this module implements just enough of it to
pick random cocycles: products, the Leibniz differential, slice bases,
and kernels over Q.

Monomials are tuples of generator names in sorted order; elements are
dicts {monomial: Fraction} with no stored zeros.
"""

from fractions import Fraction
from itertools import combinations


class Exterior:
    def __init__(self, weights, differential=None):
        """weights: {name: Adams weight}; differential: {name: element}."""
        self.weights = dict(weights)
        self.d_gen = dict(differential or {})

    def mono_mul(self, m1, m2):
        """(sign, monomial) of m1 * m2, or None when a generator repeats."""
        if set(m1) & set(m2):
            return None
        seq = list(m1) + list(m2)
        inversions = sum(
            1 for i in range(len(seq)) for j in range(i + 1, len(seq))
            if seq[i] > seq[j]
        )
        return (-1) ** inversions, tuple(sorted(seq))

    def multiply(self, a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                prod = self.mono_mul(m1, m2)
                if prod:
                    sign, m = prod
                    _add(out, m, sign * c1 * c2)
        return out

    def d_mono(self, m):
        """Leibniz rule; every generator is odd, so the sign is (-1)^i."""
        out = {}
        for i, g in enumerate(m):
            dg = self.d_gen.get(g)
            if not dg:
                continue
            term = self.multiply(self.multiply({m[:i]: Fraction(1)}, dg),
                                 {m[i + 1:]: Fraction(1)})
            for mm, c in term.items():
                _add(out, mm, (-1) ** i * c)
        return out

    def basis(self, deg, wt):
        if deg < 0:
            return []
        return [m for m in combinations(sorted(self.weights), deg)
                if sum(self.weights[g] for g in m) == wt]


class CellSpace:
    """A cell module over an Exterior algebra: cells (name, deg, wt) and
    d b_j = sum_i a_ij b_i, stored as {(i, j): element}."""

    def __init__(self, algebra, cells, differential):
        self.A = algebra
        self.cells = cells
        self.diff = differential

    def slice(self, deg, wt):
        return [(m, i) for i, (_, ci, wi) in enumerate(self.cells)
                for m in self.A.basis(deg - ci, wt - wi)]

    def d_pair(self, m, j):
        """d(m b_j) = d(m) b_j + (-1)^|m| m d(b_j)."""
        out = {(dm, j): c for dm, c in self.A.d_mono(m).items()}
        sign = (-1) ** len(m)
        for (i, jj), a in self.diff.items():
            if jj == j:
                for pm, c in self.A.multiply({m: Fraction(1)}, a).items():
                    _add(out, (pm, i), sign * c)
        return out


def random_cocycle(rng, src, dst, d_of):
    """A random rational combination of a kernel basis of d: src -> dst.

    d_of(x) returns d x as {dst element: coeff}.  Returns {src element:
    coeff}, possibly empty."""
    pos = {x: k for k, x in enumerate(dst)}
    rows = [dict() for _ in dst]
    for j, x in enumerate(src):
        for y, c in d_of(x).items():
            rows[pos[y]][j] = c
    combo = {}
    for v in kernel(rows, len(src)):
        c = Fraction(rng.randint(-2, 2))
        for j, x in v.items():
            _add(combo, src[j], c * x)
    return combo


def kernel(rows, ncols):
    """Basis of {x : rows . x = 0}, rows given as sparse dicts."""
    pivots = {}  # pivot column -> reduced row
    for row in rows:
        row = dict(row)
        for p, prow in pivots.items():
            c = row.get(p)
            if c:
                for k, x in prow.items():
                    _add(row, k, -c * x)
        if not row:
            continue
        p = min(row)
        inv = 1 / row[p]
        row = {k: x * inv for k, x in row.items()}
        for q, qrow in pivots.items():
            c = qrow.get(p)
            if c:
                for k, x in row.items():
                    _add(qrow, k, -c * x)
        pivots[p] = row
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
        for p, row in pivots.items():
            c = row.get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def _add(vec, key, c):
    y = vec.get(key, 0) + c
    if y:
        vec[key] = y
    else:
        vec.pop(key, None)
