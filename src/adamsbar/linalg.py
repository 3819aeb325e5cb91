"""Exact sparse rational linear algebra.

Everything downstream (cohomology slices, Hopf structure constants,
minimal-model stages) reduces to kernels, solves and quotient
representatives over Q.  Repeated questions "what are the coordinates of
v in this fixed independent family?" go through ClassProjector, which
factors the family once into fully reduced rows keyed by pivot, so a
query touches only the rows its own support picks; solve is for one-off
systems whose matrix need not be injective.  All arithmetic uses
fractions.Fraction, so results are exact and bit-for-bit reproducible:
elimination always picks the pivot in the lowest remaining row, then the
lowest column.

Vectors are dicts {index: Fraction} with no stored zeros; matrices store
a dict {(row, col): Fraction}.
"""

from __future__ import annotations

from fractions import Fraction

Vec = dict  # {int: Fraction}, zero entries absent


def _vec_iadd(u, v, c):
    """u += c*v in place; new keys are appended in v's order."""
    for i, x in v.items():
        y = u.get(i, Fraction(0)) + c * x
        if y:
            u[i] = y
        else:
            u.pop(i, None)


def vec_add(u, v, c=Fraction(1)):
    """u + c*v as a new sparse vector."""
    out = dict(u)
    _vec_iadd(out, v, c)
    return out


def vec_scale(u, c):
    if not c:
        return {}
    return {i: c * x for i, x in u.items()}


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q."""

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), x in entries.items():
                if x:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise ValueError(f"entry ({i},{j}) out of bounds")
                    self.entries[(i, j)] = Fraction(x)

    @classmethod
    def from_columns(cls, cols, nrows):
        m = cls(nrows, len(cols))
        for j, col in enumerate(cols):
            for i, x in col.items():
                if x:
                    m.entries[(i, j)] = Fraction(x)
        return m

    def column(self, j):
        return {i: x for (i, jj), x in self.entries.items() if jj == j}

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (i, j), x in self.entries.items():
            cols[j][i] = x
        return cols

    def row_list(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), x in self.entries.items():
            rows[i][j] = x
        return rows

    def apply(self, v):
        """Matrix times sparse column vector."""
        out = {}
        for (i, j), x in self.entries.items():
            c = v.get(j)
            if c:
                y = out.get(i, Fraction(0)) + x * c
                if y:
                    out[i] = y
                else:
                    out.pop(i, None)
        return out

    def transpose(self):
        return SparseMatrix(
            self.cols, self.rows, {(j, i): x for (i, j), x in self.entries.items()}
        )


def _echelonize(rows):
    """Row-reduce a list of sparse row-vectors in place (new list returned).

    Returns (reduced_rows, pivot_cols): fully reduced echelon form, pivots
    are 1, pivot columns cleared elsewhere, zero rows dropped.  Pivot choice
    is the lowest column with a nonzero entry in the lowest unused row, so
    the output is canonical for a given input order.
    """
    work = [dict(r) for r in rows if r]
    reduced = []
    pivots = []
    for row in work:
        for p, prow in zip(pivots, reduced):
            c = row.get(p)
            if c:
                _vec_iadd(row, prow, -c)
        if not row:
            continue
        p = min(row)
        c = row[p]
        row = vec_scale(row, Fraction(1) / c)
        # back-substitute into earlier rows
        for k in range(len(reduced)):
            ck = reduced[k].get(p)
            if ck:
                _vec_iadd(reduced[k], row, -ck)
        reduced.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [reduced[k] for k in order], [pivots[k] for k in order]


def echelon_basis(vectors):
    """Canonical reduced-echelon basis of span(vectors)."""
    reduced, _ = _echelonize(vectors)
    return reduced


def rank(m: SparseMatrix):
    reduced, _ = _echelonize(m.row_list())
    return len(reduced)


def kernel_basis(m: SparseMatrix):
    """Reduced-echelon basis of ker(m), as column vectors of length m.cols.

    Representation is canonical: for each free column f the basis vector has
    entry 1 at f and the pivot columns carry the negated elimination
    coefficients.
    """
    reduced, pivots = _echelonize(m.row_list())
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = {f: Fraction(1)}
        for p, row in zip(pivots, reduced):
            c = row.get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def solve(m: SparseMatrix, b):
    """A particular solution x of m x = b, or None if b is not in the image.

    Deterministic: echelon-form particular solution (free variables 0).
    """
    rows = m.row_list()
    aug = []
    BCOL = m.cols  # augmented column index
    for i, r in enumerate(rows):
        r = dict(r)
        if b.get(i):
            r[BCOL] = b[i]
        aug.append(r)
    reduced, pivots = _echelonize(aug)
    x = {}
    for p, row in zip(pivots, reduced):
        if p == BCOL:
            return None  # inconsistent system
        c = row.get(BCOL)
        if c:
            x[p] = c
    return x


def image_basis(m: SparseMatrix):
    """Canonical reduced-echelon basis of the column space."""
    return echelon_basis(m.columns())


def quotient_reps(sub_vectors, ambient_dim):
    """Standard basis vectors projecting to a basis of ambient/span(sub).

    Deterministic: the non-pivot coordinates of the echelonized subspace.
    Raises ValueError if sub_vectors are linearly dependent.
    """
    reduced, pivots = _echelonize(sub_vectors)
    if len(reduced) != len([v for v in sub_vectors if v]) or any(
        not v for v in sub_vectors
    ):
        raise ValueError("subspace vectors are not linearly independent")
    pivot_set = set(pivots)
    return [{j: Fraction(1)} for j in range(ambient_dim) if j not in pivot_set]


def quotient_basis(sub_vectors, vectors):
    """Representatives among `vectors` of a basis of span(vectors)/span(sub).

    Returned vectors are actual members of `vectors`'s span (echelonized
    against sub), canonical given the input order.
    """
    sub_red, sub_piv = _echelonize(sub_vectors)
    reps = []
    acc_rows = list(sub_red)
    acc_piv = list(sub_piv)
    for v in vectors:
        w = dict(v)
        for p, row in zip(acc_piv, acc_rows):
            c = w.get(p)
            if c:
                _vec_iadd(w, row, -c)
        if w:
            p = min(w)
            w = vec_scale(w, Fraction(1) / w[p])
            acc_rows.append(w)
            acc_piv.append(p)
            reps.append(v)
    return reps


def cohomology(d_out: SparseMatrix, d_in: SparseMatrix):
    """(dimension, representative vectors) of ker(d_out)/im(d_in).

    d_out maps the space to the next degree, d_in maps the previous degree
    in.  Representatives are kernel vectors, echelonized against the image.
    """
    ker = kernel_basis(d_out)
    im = image_basis(d_in)
    reps = quotient_basis(im, ker)
    return len(reps), reps


class ClassProjector:
    """Coordinates in a fixed linearly independent family reps + image.

    The family is eliminated once, when the projector is built, into fully
    reduced rows keyed by pivot: each row is 1 at its own pivot, 0 at every
    other pivot, and remembers which combination of reps it is (its image
    part is never needed).  class_coords(v) then subtracts only the rows
    whose pivot lies in the support of v, once each, from one copy of v.
    It returns the coordinates of v on reps, in index order, or None when
    v is outside the span of the family (strict=True raises).  The family
    is independent, so both answers are unique; a dependent family raises
    ValueError at construction.
    """

    def __init__(self, reps, image, dim):
        self.reps = reps
        self.image = image
        self.dim = dim
        nreps = len(reps)
        # pivot -> (row, its combination of reps)
        self._rows = {}
        for k, col in enumerate(list(reps) + list(image)):
            w, combo = self._reduce(col)
            if not w:
                raise ValueError("family vectors are not linearly independent")
            if k < nreps:  # the reps part of w = col - rows is e_k - combo
                combo[k] = Fraction(-1)
            p = min(w)
            c = Fraction(1) / w[p]
            row, combo = vec_scale(w, c), vec_scale(combo, -c)
            # back-substitute, so the earlier rows vanish at p
            for q, (qrow, qcombo) in self._rows.items():
                cq = qrow.get(p)
                if cq:
                    _vec_iadd(qrow, row, -cq)
                    _vec_iadd(qcombo, combo, -cq)
            self._rows[p] = (row, combo)

    def _reduce(self, v):
        """(v minus its multiples of the rows, the reps part of that
        multiple); the rows are 0 at each other's pivots, so each row is
        subtracted once, by v's own entry at its pivot."""
        residue = dict(v)
        combo = {}
        for p, c in v.items():
            if p in self._rows:
                row, rcombo = self._rows[p]
                _vec_iadd(residue, row, -c)
                _vec_iadd(combo, rcombo, c)
        return residue, combo

    def class_coords(self, v, strict=True):
        residue, combo = self._reduce(v)
        if residue:
            if strict:
                raise ValueError("vector outside the span of reps + image")
            return None
        return {i: combo[i] for i in sorted(combo)}
