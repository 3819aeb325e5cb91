"""Independent oracles, written before (and apart from) the bar pipeline.

- Lyndon/necklace counts for free co-Lie dimensions over k letters.
- Brute-force H^0 / indecomposables for letter algebras with zero
  differential and zero products (all words are cocycles; only the
  shuffle-decomposable quotient needs linear algebra).  Uses its own word
  enumeration and unsigned shuffle, sharing only the generic row
  reduction.
- Dense triple-loop d^2, flatness and chain-map checks for cell modules.
"""

import itertools
from fractions import Fraction

from adamsbar import linalg
from adamsbar.cdga import el_add

F = Fraction


def mobius(n):
    result = 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def lyndon_count(k, w):
    """Number of Lyndon words of length w over k letters."""
    return sum(mobius(d) * k ** (w // d) for d in range(1, w + 1) if w % d == 0) // w


def brute_force_h0_dim(k, w):
    """dim H^0(w) for the zero-structure algebra on k degree-1 letters."""
    return k ** w


def _shuffles(u, v):
    """All interleavings of u and v (letters degree 1, no signs)."""
    if not u:
        return [v]
    if not v:
        return [u]
    return [(u[0],) + w for w in _shuffles(u[1:], v)] + [
        (v[0],) + w for w in _shuffles(u, v[1:])
    ]


def brute_force_gamma_dim(k, w):
    """dim of weight-w indecomposables: words modulo shuffle products."""
    letters = tuple(range(k))
    words = list(itertools.product(letters, repeat=w))
    index = {wd: i for i, wd in enumerate(words)}
    decomposables = []
    for w1 in range(1, w):
        for u in itertools.product(letters, repeat=w1):
            for v in itertools.product(letters, repeat=w - w1):
                vec = {}
                for s in _shuffles(u, v):
                    vec[index[s]] = vec.get(index[s], F(0)) + F(1)
                decomposables.append(vec)
    basis = linalg.echelon_basis(decomposables)
    return len(words) - len(basis)


# ---- dense reference checks for cell modules ----------------------------
#
# The three "signed product plus d" checks on matrices of algebra elements,
# as dense loops over every basis triple (i, j, k).  cellmod computes them
# with one sparse composition; these are the reference its witnesses must
# reproduce string for string.


def dense_d_squared_failures(M, entries, label="d^2"):
    """d^2 witnesses of the cell module M with differential `entries`."""
    A = M.algebra
    n = len(M.basis)
    failures = []
    for j in range(n):
        for k in range(n):
            acc = A.apply_d(entries.get((k, j), {}))
            for i in range(n):
                a_ij = entries.get((i, j))
                a_ki = entries.get((k, i))
                if a_ij and a_ki:
                    deg = A.el_bidegree(a_ij)[0]
                    acc = el_add(acc, A.multiply(a_ij, a_ki), F((-1) ** deg))
            if acc:
                failures.append(f"{label} != 0 at (k={k}, j={j}): {acc}")
    return failures


def dense_check_flat(C):
    """(ok, positions) of dGamma + Gamma^2 + d0 cross terms != 0."""
    A = C.algebra
    n = len(C.basis)
    failures = []
    for j in range(n):
        for k in range(n):
            acc = A.apply_d(C.gamma.get((k, j), {}))
            for i in range(n):
                g_ij = C.gamma.get((i, j))
                if g_ij:
                    deg = A.el_bidegree(g_ij)[0]
                    g_ki = C.gamma.get((k, i))
                    if g_ki:
                        acc = el_add(acc, A.multiply(g_ij, g_ki),
                                     F((-1) ** deg))
                    c = C.d0.get((k, i))
                    if c:
                        acc = el_add(acc, g_ij, F((-1) ** deg) * c)
                c0 = C.d0.get((i, j))
                if c0:
                    g_ki = C.gamma.get((k, i))
                    if g_ki:
                        acc = el_add(acc, g_ki, c0)
            if acc:
                failures.append((k, j))
    return (not failures), failures


def dense_check_chain_map(f):
    """(ok, positions) of d_N f - f d_M != 0 for a CellMorphism f."""
    A = f.M.algebra
    failures = []
    for j in range(len(f.M.basis)):
        for k in range(len(f.N.basis)):
            # d_N(f(b_j)) - f(d_M b_j), component on b^N_k
            acc = A.apply_d(f.entries.get((k, j), {}))
            for i in range(len(f.N.basis)):
                f_ij = f.entries.get((i, j))
                a_ki = f.N.differential.get((k, i))
                if f_ij and a_ki:
                    deg = A.el_bidegree(f_ij)[0]
                    acc = el_add(acc, A.multiply(f_ij, a_ki), F((-1) ** deg))
            for i in range(len(f.M.basis)):
                a_ij = f.M.differential.get((i, j))
                f_ki = f.entries.get((k, i))
                if a_ij and f_ki:
                    deg = A.el_bidegree(a_ij)[0]
                    acc = el_add(acc, A.multiply(a_ij, f_ki),
                                 F(-((-1) ** deg)))
            if acc:
                failures.append((k, j))
    return (not failures), failures
