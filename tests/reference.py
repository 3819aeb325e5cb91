"""Independent oracles, written before (and apart from) the bar pipeline.

- Lyndon/necklace counts for free co-Lie dimensions over k letters.
- Brute-force H^0 / indecomposables for letter algebras with zero
  differential and zero products (all words are cocycles; only the
  shuffle-decomposable quotient needs linear algebra).  Uses its own word
  enumeration and unsigned shuffle, sharing only the generic row
  reduction.
- Dense triple-loop d^2 and flatness checks for cell modules, and the
  strictness of a cell module's filtration, which every module the
  program builds has by construction, so CellModule.check does not read
  it.
- The reference cell-module bookkeeping: the strict filtration found
  layer by layer, rescanning every unplaced index per layer, and the
  keys of a cell module's slice walked and sorted one slice at a time.
- The reference generalized nilpotence check: the fiber generators staged
  the same way, by names, with its own cycle search.
- The reference elimination and Hopf structure constants: row reduction
  and a projector that walk every row, the product of every ordered pair
  of classes and the coproduct classified over every split.  The
  back-substituting integer Echelon, whose rows are fully reduced after
  every add, is kept as ReferenceEchelon.
- The reference cohomology and co-Lie quotient: kernel, image and
  quotient representatives each from their own elimination, and the
  indecomposables from the products of every ordered pair, echelonized,
  with a separate projector.  AllPairsCoLie keeps the program's own
  echelon of the decomposables fed one product per unordered pair of
  classes, where the program takes generators times classes.
- The reference simplicial approximation: one complex per simplex size,
  each with its own matrices and reference cohomology; DeltaApprox, the
  one complex at n with its subcomplexes of top vertex <= nn, which
  delta-approx read its tables off before it read them off the bar
  complex's length truncations (reference_delta_approximation is that
  former program); and the three facts about DeltaApprox that the
  quasi-isomorphism of README's "Simplicial approximation" rests on:
  d^2 = 0 on its slices, the pairs of top vertex <= nn closed under d,
  and q, killing the words with a unit letter, a chain map to the bar
  complex.
- The reference word-length truncation: one bar complex per length m,
  keeping only the words of length <= m, each with its own ranks.
- The reference connection on the fiber bar construction: Gamma
  extended to fiber monomials as a derivation factor by factor, apart
  from the total algebra's bar complex, and flatness as D(D(1 (x) word))
  = 0 word by word, with no cache.  The program builds no relative bar
  complex; this is the oracle for its verdicts, which read the total's
  structure_failures in place of D^2.
- The reference augmentation A -> N: a filter keeping the monomials made
  of base generators only (reference_eps).
- The maps p* and s* between the base's gamma and the total's, the
  second through reference_eps.  s* o p* = id holds on every input, as
  s o p = id_N, so it is checked here and not by kernel.
- The reference co-action: the base generator times fiber generator
  monomials of d_A on each degree-1 fiber generator, read off d_A with
  no fiber algebra and no connection.
- The minimal model's structure map commutes with d on every fiber
  generator, each side through reference_multiply and reference_apply_d.
  It holds by construction, so it is checked here and not by
  minimal-model.
- The exterior square: every fiber generator of a 1-minimal model over
  the trivial base has degree 1, and every term of its d is a product of
  two of them, as QAColie reads it without checking.
- The reference augmentation ideal (ReferenceIdealComplex): per slice,
  the kernel of the augmentation applied to every monomial, found by an
  elimination and read through its KernelCoords, where the program takes
  the monomials with a killed generator.
- The reference minimal model and cell resolution: each its own
  cell-attaching loop, one cell at a time, with a fresh copy of the model
  (a fresh P) and fresh slice caches in every round; the model's ideals
  are ReferenceIdealComplexes.  The resolution acts on the dg module by
  walking every entry of each action matrix (reference_act), and d of a
  cell module's key is recomputed with no memo (reference_d_element).
- The reference cell-attaching loop (reference_attach_cells): every
  source class imaged again in every round and for the certificate, and
  a cell module that forgets, at each new cell, every slice of the
  cell's weight and degree and above (coarse_attach).
- The reference t-structure truncation: tau_{<=n}, tau^{>n} and
  H^n(Gamma) as three separate constructions, the first two through a
  ReferenceProjector each, the last through per-weight d0-cohomology
  projectors.
- The reference word arithmetic: products and d recomputed from the
  generators and the table on every call, with no memo, and the shuffle
  of two words enumerated as subsets of positions, each with the Koszul
  sign of its crossing pairs.  The bar faces of a word are built through
  the algebra's apply_d and multiply of one-term elements, one call per
  letter and per adjacent pair.
- The reference slice enumeration: the monomials of a cdga slice and the
  pairs (S, word) of a simplicial-approximation slice, each found by a
  walk over its whole weight, run once per (degree, weight) and filtered
  to the degree; the bar words of a weight, every word listed, its
  degree taken word by word (word_bidegree) and each degree group
  sorted.
- gamma by letter content: the number of gamma generators of the
  punctured line in each multidegree, against the dimension of the free
  Lie algebra there (Witt's formula, multigraded).
- The K_k dims: the kernel and total H^0 dims of K_k over E1 as
  coefficients of a rational function, with no bar construction.
- gamma of a free algebra by its generators: gamma_w is dim H^1 of the
  linear part of d on the generators of weight w.
- The Chevalley-Eilenberg complex of gamma: Lambda(gamma) with the
  cobracket extended as a derivation, the 1-minimal model of A, so its
  H^1 is A's and its H^2 injects into A's, weight by weight; all ranks,
  on both sides, from reference_echelonize.
- The reference report text: a report made JSON-ready by one walk and
  written by json.dumps(sort_keys=True, indent=2) in a second.
- The reference reader (reference_parse_text, reference_bind_cell): each
  line lexed into (token, column) pairs, and each d, aug or mul line
  keeping its own copy of the set of names declared above it.
"""

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm
from types import SimpleNamespace

from adamsbar import linalg
from adamsbar.bar import (
    BarComplex, CoLiePresentation, HopfPresentation, _exact,
    _wadd as bar_wadd, h0_hopf, map_letters)
from adamsbar.cdga import (
    UNIT, CdgaPresentation, GeneratorSpec, el_add, el_gen, mono_factors,
    structure_failures)
from adamsbar.cellmod import (
    CellModule, FiltrationError, ModuleError, _strict_filtration)
from adamsbar.parser import ParseError
from adamsbar.relative import checked_fiber, fiber_algebra

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
    basis, _ = reference_echelonize(decomposables)
    return len(words) - len(basis)


# ---- dense reference checks for cell modules ----------------------------
#
# The two "signed product plus d" checks on matrices of algebra elements,
# as dense loops over every basis triple (i, j, k).  cellmod computes them
# with one sparse composition; these are the reference its witnesses must
# reproduce string for string.  Strictness of the filtration, which every
# module cellmod builds has by construction, is checked here only.


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


def strictness_failures(M):
    """One message per entry a_ij of a cell module's d whose row i is not
    in a stage below its column j's, an index's stage its first in
    M.filtration; empty when the filtration is strict."""
    stage = {}
    for s, idxs in enumerate(M.filtration):
        for i in idxs:
            stage.setdefault(i, s)
    return [f"entry ({i},{j}) breaks filtration strictness"
            for i, j in M.differential if stage[i] >= stage[j]]


# ---- reference elimination ----------------------------------------------
#
# Row reduction that builds a new vector at every step, a projector that
# reduces every query against all of its rows in construction order, and
# an integer echelon that back-substitutes every new row into the earlier
# ones.  linalg's fast paths must reproduce their pivots, residues,
# kernels and coordinates exactly, with the key order of what the program
# reads: kernel vectors, representatives and class coordinates.


def _vec_add(u, v, c=Fraction(1)):
    """u + c*v as a new sparse vector."""
    out = dict(u)
    for i, x in v.items():
        y = out.get(i, Fraction(0)) + c * x
        if y:
            out[i] = y
        else:
            out.pop(i, None)
    return out


def _vec_scale(u, c):
    if not c:
        return {}
    return {i: c * x for i, x in u.items()}


def reference_echelonize(rows):
    """(reduced rows, pivots) of the reduced row echelon form of rows,
    sorted by pivot, one new dict a step."""
    work = [dict(r) for r in rows if r]
    reduced = []
    pivots = []
    for row in work:
        for p, prow in zip(pivots, reduced):
            c = row.get(p)
            if c:
                row = _vec_add(row, prow, -c)
        if not row:
            continue
        p = min(row)
        c = row[p]
        row = _vec_scale(row, Fraction(1) / c)
        # back-substitute into earlier rows
        for k in range(len(reduced)):
            ck = reduced[k].get(p)
            if ck:
                reduced[k] = _vec_add(reduced[k], row, -ck)
        reduced.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [reduced[k] for k in order], [pivots[k] for k in order]


class ReferenceProjector:
    """Coordinates on reps of a vector in span(reps + image): each query is
    reduced against every row, in the order the rows were built."""

    def __init__(self, reps, image):
        self.nreps = len(reps)
        # (pivot, reduced vector with entry 1 at pivot, its combination of
        # family members); each vector is 0 at the pivots before it
        self._rows = []
        for k, col in enumerate(list(reps) + list(image)):
            w, combo = self._reduce(col, {k: Fraction(1)})
            if not w:
                raise ValueError("family vectors are not linearly independent")
            p = min(w)
            c = Fraction(1) / w[p]
            self._rows.append((p, _vec_scale(w, c), _vec_scale(combo, c)))

    def _reduce(self, v, combo):
        for p, row, rcombo in self._rows:
            c = v.get(p)
            if c:
                v = _vec_add(v, row, -c)
                combo = _vec_add(combo, rcombo, -c)
        return v, combo

    def class_coords(self, v):
        residue, combo = self._reduce(v, {})
        if residue:
            raise ValueError("vector outside the span of reps + image")
        return {i: -combo[i] for i in sorted(combo) if i < self.nreps}


def reference_vec_iadd(u, v, c):
    """u += c*v in place, one u.get(i, 0) + c*x per key; new keys are
    appended in v's order.  The reference for linalg._vec_iadd."""
    for i, x in v.items():
        y = u.get(i, 0) + c * x
        if y:
            u[i] = y
        else:
            u.pop(i, None)


def _integral(v):
    """(V, den) with v = V/den, V an integer vector in v's key order and
    den the least common denominator of v's entries."""
    den = 1
    for x in v.values():
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return {i: x.numerator * (den // x.denominator) for i, x in v.items()}, den


def _rational(V, den):
    return {i: Fraction(x, den) for i, x in V.items()}


def _iscale(u, a):
    for i in u:
        u[i] *= a


def _primitive(R, K):
    g = gcd(*R.values())
    if g != 1:
        g = gcd(g, *K.values())
        if g != 1:
            for u in (R, K):
                for i in u:
                    u[i] //= g


class ReferenceEchelon:
    """linalg.Echelon as it was before its rows became triangular: every
    add back-substitutes the new row into each earlier row that holds its
    pivot, so the rows stay fully reduced (0 at each other's pivots), and
    a reduction subtracts the rows at the pivots in v's support once
    each, in the order the pivots were found.  Rows and combinations are
    integer vectors R, K over the positive denominator R[p]."""

    def __init__(self, vectors=()):
        self._rows = {}    # pivot -> R
        self._combos = {}  # pivot -> K
        self._found = {}   # pivot -> how many pivots were found before it
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self._rows)

    def _reduce(self, v):
        V, den = _integral(v)
        C = {}
        for _, p in sorted((self._found[p], p) for p in v if p in self._rows):
            R = self._rows[p]
            x, d = V[p], R[p]
            g = gcd(x, d)
            a, b = d // g, x // g
            if a != 1:
                _iscale(V, a)
                _iscale(C, a)
                den *= a
            reference_vec_iadd(V, R, -b)
            reference_vec_iadd(C, self._combos[p], b)
        return V, C, den

    def reduce(self, v):
        V, C, den = self._reduce(v)
        return _rational(V, den), _rational(C, den)

    def add(self, v, tag=None):
        R, C, den = self._reduce(v)
        if not R:
            return None
        p = min(R)
        K = {t: -c for t, c in C.items()}
        if tag is not None:
            K[tag] = den
        if R[p] < 0:
            _iscale(R, -1)
            _iscale(K, -1)
        _primitive(R, K)
        # back-substitute, so the earlier rows vanish at p
        d = R[p]
        for q in [q for q, Rq in self._rows.items() if p in Rq]:
            Rq, Kq = self._rows[q], self._combos[q]
            y = Rq[p]
            g = gcd(y, d)
            a, b = d // g, y // g
            if a != 1:
                _iscale(Rq, a)
                _iscale(Kq, a)
            reference_vec_iadd(Rq, R, -b)
            reference_vec_iadd(Kq, K, -b)
            _primitive(Rq, Kq)
        self._found[p] = len(self._rows)
        self._rows[p] = R
        self._combos[p] = K
        return p

    def non_pivots(self, n):
        return [j for j in range(n) if j not in self._rows]

    def class_coords(self, v):
        V, C, den = self._reduce(v)
        if V:
            return None
        return {i: Fraction(C[i], den) for i in sorted(C)}


def class_coords_inside(projector, v):
    """projector.class_coords(v) of a linalg projector, for a v that must
    lie in its span: a v outside raises ValueError."""
    coords = projector.class_coords(v)
    if coords is None:
        raise ValueError("vector outside the span of reps + image")
    return coords


# ---- the reference cell-module bookkeeping ------------------------------


def reference_strict_filtration(basis, diff):
    """The coarsest strict filtration of a basis under d {(i, j): entry},
    a cancelled entry included: each stage is every unplaced index whose
    entries' rows are all placed, found by a scan of the unplaced indices
    per stage."""
    deps = {j: set() for j in range(len(basis))}
    for i, j in diff:
        deps[j].add(i)
    stages, placed, remaining = [], set(), set(deps)
    while remaining:
        stage = sorted(j for j in remaining if deps[j] <= placed)
        if not stage:
            raise ModuleError("differential admits no strict filtration")
        stages.append(stage)
        placed |= set(stage)
        remaining -= set(stage)
    return stages


def reference_generalized_nilpotent_check(N, A):
    """(True, stages of A's fiber generator names over N) or (False, a
    cycle): each stage is every unplaced generator, in fiber order, whose
    differential uses only placed fiber generators, found by a scan of the
    unplaced generators per stage.  The cycle starts at the first
    unplaced generator and follows, at each step, the unplaced generator
    it uses whose name sorts first."""
    base_names = {g.name for g in N.generators}
    fiber = [g.name for g in A.generators if g.name not in base_names]
    deps = {name: {g for mono in A.differential.get(name, {})
                   for g, _ in mono if g not in base_names}
            for name in fiber}
    stages, placed, remaining = [], set(), list(fiber)
    while remaining:
        stage = [g for g in remaining if deps[g] <= placed]
        if not stage:
            return False, _reference_cycle(deps, remaining)
        stages.append(stage)
        placed.update(stage)
        remaining = [g for g in remaining if g not in placed]
    return True, stages


def _reference_cycle(deps, nodes):
    node_set = set(nodes)
    seen = []
    cur = nodes[0]
    while cur not in seen:
        seen.append(cur)
        nxt = [g for g in deps[cur] if g in node_set]
        if not nxt:
            return seen
        cur = sorted(nxt)[0]
    return seen[seen.index(cur):]


def reference_cell_slice_keys(M, n, r):
    """The keys (mono, j) of slice (n, r) of the cell module M, walked for
    this slice alone: each basis element j with the algebra's slice of
    the complementary bidegree, sorted by j, then by monomial."""
    out = []
    for j, (_, cj, rj) in enumerate(M.basis):
        if rj <= r:
            out.extend((mono, j) for mono in M.algebra.slice(n - cj, r - rj))
    return sorted(out, key=lambda p: (p[1], p[0]))


# ---- reference Hopf structure constants ---------------------------------


def _wadd(out, w, c):
    y = out.get(w, F(0)) + c
    if y:
        out[w] = y
    else:
        out.pop(w, None)


def reference_hopf(h):
    """The structure constants of the HopfPresentation h, recomputed from
    its representatives: every ordered product (the unit included) and
    every split of the coproduct is classified, against a
    ReferenceProjector per weight.  The result has what hopf_checks
    reads: w_max, dims, product_of(w1, i, w2, j), coproduct_of(w, k),
    and bar, rep_lins and classify, for the antipode of a class."""
    bar = h.bar
    projectors = {}
    for w in range(h.w_max + 1):
        image, _ = reference_echelonize(bar.d_columns(-1, w))
        projectors[w] = ReferenceProjector(bar.cohomology(0, w)[1], image)

    def classify(lin, w):
        return projectors[w].class_coords(bar.vector(lin, 0, w))

    product, coproduct = {}, {}
    for w1 in range(h.w_max + 1):
        for w2 in range(h.w_max + 1 - w1):
            for i, u in enumerate(h.rep_lins(w1)):
                for j, v in enumerate(h.rep_lins(w2)):
                    prod = bar.shuffle_lin(u, v)
                    product[(w1, i, w2, j)] = classify(prod, w1 + w2)
    for w in range(h.w_max + 1):
        for k, rep in enumerate(h.rep_lins(w)):
            out = {}
            # split the deconcatenation by prefix weight
            by_weight = {}
            for word, c in rep.items():
                for u, v in bar.coprod_word(word):
                    w1 = word_bidegree(bar.A, u)[1]
                    by_weight.setdefault(w1, {})
                    _wadd(by_weight[w1], (u, v), c)
            for w1, pairs in by_weight.items():
                w2 = w - w1
                suffix_basis = {}
                for (u, v), c in pairs.items():
                    suffix_basis.setdefault(v, {})
                    _wadd(suffix_basis[v], u, c)
                suff_by_class = {}
                for v, ulin in suffix_basis.items():
                    ucls = classify(ulin, w1)
                    for i, c in ucls.items():
                        suff_by_class.setdefault(i, {})
                        _wadd(suff_by_class[i], v, c)
                for i, vlin in suff_by_class.items():
                    vcls = classify(vlin, w2)
                    for j, c in vcls.items():
                        out[(w1, i, j)] = out.get((w1, i, j), F(0)) + c
            coproduct[(w, k)] = {k2: c for k2, c in out.items() if c}
    return SimpleNamespace(w_max=h.w_max, dims=h.dims,
                           product_of=lambda *key: product[key],
                           coproduct_of=lambda w, k: coproduct[(w, k)],
                           bar=bar, rep_lins=h.rep_lins,
                           classify=classify)


# ---- reference cohomology and co-Lie quotient ---------------------------


def reference_rows(cols):
    """The rows of the matrix with columns cols, read row by row up to the
    last row with an entry."""
    nrows = max((i + 1 for col in cols for i in col), default=0)
    return [{j: col[i] for j, col in enumerate(cols) if i in col}
            for i in range(nrows)]


def reference_kernel_basis(cols):
    """linalg.kernel_basis of the matrix with columns cols: one vector per
    free column, the pivot entries in ascending pivot order."""
    reduced, pivots = reference_echelonize(reference_rows(cols))
    basis = []
    for f in range(len(cols)):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
        for p, row in zip(pivots, reduced):
            c = row.get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def reference_solve(cols, b):
    """linalg.solve: the rows of the matrix with columns cols augmented by
    the column b, reduced; None when b's column is a pivot, else b's
    entries at the pivot rows, the free variables 0."""
    n = len(cols)
    reduced, pivots = reference_echelonize(reference_rows(cols + [b]))
    if n in pivots:
        return None
    return {p: row[n] for p, row in zip(pivots, reduced) if row.get(n)}


def reference_quotient_basis(sub_vectors, vectors):
    """The members of `vectors` independent of sub and of the ones kept
    before them, each tested against every row so far."""
    acc_rows, acc_piv = reference_echelonize(sub_vectors)
    reps = []
    for v in vectors:
        w = dict(v)
        for p, row in zip(acc_piv, acc_rows):
            c = w.get(p)
            if c:
                w = _vec_add(w, row, -c)
        if w:
            p = min(w)
            acc_rows.append(_vec_scale(w, Fraction(1) / w[p]))
            acc_piv.append(p)
            reps.append(v)
    return reps


def reference_quotient_reps(sub_vectors, ambient_dim):
    """Unit vectors at the non-pivot columns of an independent sub."""
    reduced, pivots = reference_echelonize(sub_vectors)
    if len(reduced) != len(sub_vectors):
        raise ValueError("subspace vectors are not linearly independent")
    return [{j: Fraction(1)} for j in range(ambient_dim) if j not in pivots]


def reference_cohomology(d_out, d_in):
    """(dim, reps, projector) of ker(d_out)/im(d_in), both matrices given
    as their columns, from three separate eliminations and a
    ReferenceProjector."""
    image, _ = reference_echelonize(d_in)
    reps = reference_quotient_basis(image, reference_kernel_basis(d_out))
    return len(reps), reps, ReferenceProjector(reps, image)


def reference_colie(h):
    """basis, by_weight, project and cobracket of CoLiePresentation(h),
    from the products of every ordered pair of positive weights, their
    echelon basis, the non-pivot unit vectors as reps and a
    ReferenceProjector onto them.  The products and coproducts are
    reference_hopf(h)'s, so none is read from h."""
    ref = reference_hopf(h)
    basis, by_weight, projectors = [], {}, {}
    for w in range(1, h.w_max + 1):
        decomp = []
        for w1 in range(1, w):
            w2 = w - w1
            for i in range(h.dims()[w1]):
                for j in range(h.dims()[w2]):
                    v = ref.product_of(w1, i, w2, j)
                    if v:
                        decomp.append(v)
        decomp_basis, _ = reference_echelonize(decomp)
        reps = reference_quotient_reps(decomp_basis, h.dims()[w])
        by_weight[w] = list(range(len(basis), len(basis) + len(reps)))
        basis.extend((w, v) for v in reps)
        projectors[w] = ReferenceProjector(reps, decomp_basis)

    def project(class_vec, w):
        coords = projectors[w].class_coords(class_vec)
        return {by_weight[w][i]: c for i, c in coords.items()}

    cobracket = {}
    for g, (w, class_vec) in enumerate(basis):
        tensor = {}
        for k, c in class_vec.items():
            for (w1, i, j), cc in ref.coproduct_of(w, k).items():
                w2 = w - w1
                if w1 == 0 or w2 == 0:
                    continue
                gi = project({i: F(1)}, w1)
                gj = project({j: F(1)}, w2)
                for p, cp in gi.items():
                    for q, cq in gj.items():
                        _wadd(tensor, (p, q), c * cc * cp * cq)
        out = {}
        for (p, q), c in tensor.items():
            if p < q:
                _wadd(out, (p, q), -c)
            elif q < p:
                _wadd(out, (q, p), c)
        cobracket[g] = out
    return SimpleNamespace(basis=basis, by_weight=by_weight, project=project,
                           cobracket=cobracket)


class AllPairsCoLie(CoLiePresentation):
    """CoLiePresentation with the decomposables of each weight spanned by
    one product per unordered pair of classes of positive weight, as the
    program spanned them before it took generators times classes.
    project and the cobracket are CoLiePresentation's, read off this
    echelon; products counts the product_of calls."""

    def __init__(self, hopf):
        self.hopf = hopf
        self.basis = []
        self.by_weight = {}
        self._gamma = {}
        self.products = 0
        dims = hopf.dims()
        for w in range(1, hopf.w_max + 1):
            decomp = linalg.Echelon()
            for w1 in range(1, w // 2 + 1):
                w2 = w - w1
                for i in range(dims[w1]):
                    for j in range(dims[w2]):
                        if (w1, i) <= (w2, j):
                            decomp.add(hopf.product_of(w1, i, w2, j))
                            self.products += 1
            cols = {}
            for j in decomp.non_pivots(dims[w]):
                cols[j] = len(self.basis)
                self.basis.append((w, j))
            self.by_weight[w] = list(cols.values())
            self._gamma[w] = (decomp, cols)


# ---- reference word-length truncation -----------------------------------


class TruncatedBar(BarComplex):
    """The bar complex on the words of length <= m only (d does not
    lengthen a word, so they span a subcomplex)."""

    def __init__(self, A, m):
        super().__init__(A)
        self.m = m

    def slice_keys(self, n, w):
        return [word for word in super().slice_keys(n, w)
                if len(word) <= self.m]


def reference_truncated_h0(A, m, w_max):
    """{w: dim H^0} of the truncation of the bar complex of A at word
    length m, a TruncatedBar of its own, each rank from its own
    reference elimination."""
    bar = TruncatedBar(A, m)
    return {w: len(bar.slice(0, w))
            - len(reference_echelonize(bar.d_columns(0, w))[0])
            - len(reference_echelonize(bar.d_columns(-1, w))[0])
            for w in range(w_max + 1)}


# ---- reference simplicial approximation ---------------------------------


class DeltaApprox(linalg.SliceComplex):
    """Total complex of the bar construction spread over the faces of a
    standard n-simplex.

    Basis elements are pairs (S, word) with S a face of the simplex
    (a (m+1)-subset of {0..n} for a length-m word) and the word drawn
    from the unnormalized letters (the unit letter is allowed; its
    suspension is odd).  Face j of the differential removes the j-th
    vertex of S and applies the corresponding bar face to the word;
    the end faces apply the counit and are nonzero only on unit
    letters.

    A face only removes vertices, and an inner face drops vertex
    i + 1 <= m - 1, so the top vertex never rises: for nn <= n the pairs
    with S[-1] <= nn span a subcomplex, the complex of the nn-simplex,
    whose H^0 dims filtered_h0 reads at level S[-1].  As a SliceComplex
    its keys are the pairs (S, word), sorted and grouped by degree once
    per weight, and every dimension reads the one d_columns of each
    slice.  This is the complex relative.delta_approximation read its
    tables off before it read them off the bar complex's length
    truncations, kept as their oracle.
    """

    def __init__(self, A: CdgaPresentation, n):
        super().__init__()
        self.A = A
        self.n = n
        self.bar = BarComplex(A)
        # every face of the n-simplex, sorted
        self._simplices = sorted(
            S for k in range(1, n + 2)
            for S in itertools.combinations(range(n + 1), k))
        self._words = {}
        self._faces = {}

    def words(self, w, m):
        """{deg: the words of weight w, m letters and degree deg, sorted}.
        As in BarComplex.group_keys, the first letters of every weight,
        the unit included, are walked in sorted order, and each is put
        before the already sorted groups of words(w - r, m - 1)."""
        key = w, m
        if key not in self._words:
            groups = self._words[key] = {0: [()]} if key == (0, 0) else {}
            if m:
                firsts = [(UNIT, 0)] + [(letter, r) for r in range(1, w + 1)
                                        for letter in self.bar.letters(r)]
                for letter, r in sorted(firsts):
                    ebar = self.bar._ebar(letter)
                    for deg, tails in self.words(w - r, m - 1).items():
                        groups.setdefault(deg + ebar, []).extend(
                            (letter,) + tail for tail in tails)
        return self._words[key]

    def group_keys(self, w):
        """{deg: the pairs (S, word) of weight w and degree deg, sorted}:
        the faces S in sorted order, each followed by the sorted words of
        one letter fewer than S has vertices."""
        groups = {}
        for S in self._simplices:
            for deg, words in self.words(w, len(S) - 1).items():
                groups.setdefault(deg, []).extend((S, word) for word in words)
        return groups

    def d_basis(self, S, word, deg):
        """The bar faces of the word, of degree deg, a product of letters
        i and i + 1 dropping vertex i + 1 of S, then the two counit end
        faces; the sign of the last is deg, as the unit letter has
        ebar -1.  The bar faces depend only on the word, so they are
        built once per word."""
        if word not in self._faces:
            self._faces[word] = self.bar.faces(word)
        out = {}
        for i, k, nw, c in self._faces[word]:
            bar_wadd(out, (S if k == 1 else S[:i + 1] + S[i + 2:], nw), c)
        if word and word[0] == UNIT:
            bar_wadd(out, (S[1:], word[1:]), 1)
        if word and word[-1] == UNIT:
            bar_wadd(out, (S[:-1], word[:-1]), -1 if deg % 2 else 1)
        return out

    def d_key(self, deg, w, b):
        return self.d_basis(*b, deg)


def reference_delta_approximation(X, n, w_max):
    """relative.delta_approximation as it read its report off the one
    DeltaApprox at n: simplicial approximations of the fiber bar complex
    for all simplex sizes up to n, as the levels S[-1] <= nn, with a
    stabilization report against the fiber bar complex's H^0 (a weight-w
    word has at most w letters, so its length truncation at w_max is the
    whole complex).  ok is that the total is a
    cdga (structure_failures): the fiber is its quotient by a dg ideal, so
    d^2 = 0 on the complex then, and the subcomplexes and the map to the
    bar complex killing unit letters hold by construction."""
    Falg, _ = checked_fiber(X, w_max)
    da = DeltaApprox(Falg, n)
    weights = range(w_max + 1)
    dims = da.filtered_h0(lambda b: b[0][-1], range(n + 1), weights)
    full = da.bar.filtered_h0(len, [w_max], weights)[w_max]
    stable_n = None
    for nn in range(n + 1):
        if all(
            dims[k][w] == full[w]
            for k in range(nn, n + 1)
            for w in range(w_max + 1)
        ):
            stable_n = nn
            break
    return {
        "dims": dims,
        "full_dims": full,
        "stable_n": stable_n,
        "ok": not structure_failures(X.total),
    }


def reference_delta_dims(A, n, w_max, full):
    """(dims, stable_n) of relative.delta_approximation for the fiber
    algebra A: a separate complex for each simplex size nn <= n, basis
    sorted by (S, word), d assembled face by face, and H^0 from
    reference_cohomology; stable_n is the least nn whose tables from nn on
    equal `full` (the length-truncated bar H^0 dims)."""
    bar = BarComplex(A)

    def ebar(letter):
        return -1 if letter == UNIT else bar._ebar(letter)

    def d_basis(S, word):
        out = {}
        m = len(word)
        sig = 0
        for i, letter in enumerate(word):
            if letter != UNIT:
                for lm, c in A.apply_d({letter: F(1)}).items():
                    _wadd(out, (S, word[:i] + (lm,) + word[i + 1:]),
                          c * (-1) ** (sig % 2))
            if i < m - 1:
                s = sig + ebar(letter)
                for lm, c in A.multiply({letter: F(1)},
                                        {word[i + 1]: F(1)}).items():
                    _wadd(out, (S[:i + 1] + S[i + 2:],
                                word[:i] + (lm,) + word[i + 2:]),
                          c * (-1) ** (s % 2))
            sig += ebar(letter)
        if m and word[0] == UNIT:
            _wadd(out, (S[1:], word[1:]), F(1))
        if m and word[-1] == UNIT:
            s = sum(ebar(l) for l in word[:-1]) - 1
            _wadd(out, (S[:-1], word[:-1]), F((-1) ** (s % 2)))
        return out

    def d_columns(nn, deg, w):
        idx = {b: i for i, b in
               enumerate(reference_delta_basis(bar, nn, deg + 1, w))}
        return [{idx[key]: c for key, c in d_basis(*b).items()}
                for b in reference_delta_basis(bar, nn, deg, w)]

    dims = {nn: {w: reference_cohomology(d_columns(nn, 0, w),
                                         d_columns(nn, -1, w))[0]
                 for w in range(w_max + 1)}
            for nn in range(n + 1)}
    stable_n = next(
        (nn for nn in range(n + 1)
         if all(dims[k][w] == full[w]
                for k in range(nn, n + 1) for w in range(w_max + 1))),
        None)
    return dims, stable_n


def slice_d_squared_failures(X, degrees, weights):
    """The slices (n, r) of a SliceComplex X, r in weights and n in
    degrees, where d(n + 1, r) d(n, r) != 0 on its cached columns."""
    out = []
    for r in weights:
        for n in degrees:
            nxt = X.d_columns(n + 1, r)
            for col in X.d_columns(n, r):
                acc = {}
                for i, c in col.items():
                    acc = el_add(acc, nxt[i], c)
                if acc:
                    out.append((n, r))
                    break
    return out


def delta_closure_failures(da, w_max):
    """The slices (deg, w) of a DeltaApprox, deg -2..1 and w <= w_max,
    where some face in d has a top vertex above its column's: the pairs
    with S[-1] <= nn, which filtered_h0 reads as the nn-simplex, are then
    no subcomplex."""
    return [(deg, w) for w in range(w_max + 1) for deg in (-2, -1, 0, 1)
            if any(da.slice(deg + 1, w)[i][0][-1] > S[-1]
                   for (S, _), col in zip(da.slice(deg, w),
                                          da.d_columns(deg, w))
                   for i in col)]


def delta_q_chain_failures(da, w_max):
    """The slices (deg, w) of a DeltaApprox, deg -1 and 0 and w <= w_max,
    where q d != d_bar q for q the sum-of-identities map to the bar
    complex that kills the words with a unit letter, d_bar truncated to
    the words of length <= n."""
    def q(lin):
        out = {}
        for (_, word), c in lin.items():
            if UNIT not in word:
                out = el_add(out, {word: c})
        return out

    out = []
    for w in range(w_max + 1):
        for deg in (-1, 0):
            dst = da.slice(deg + 1, w)
            for b, col in zip(da.slice(deg, w), da.d_columns(deg, w)):
                rhs = {nw: c for nw, c in da.bar.d_lin(q({b: 1})).items()
                       if len(nw) <= da.n}
                if q({dst[i]: c for i, c in col.items()}) != rhs:
                    out.append((deg, w))
                    break
    return out


# ---- reference connection on the fiber bar construction -----------------


class ReferenceRelativeBar:
    """The connection Gamma on the fiber bar construction of X, written
    apart from the bar complex of the total algebra: gamma_mono extends
    Gamma from the fiber generators to a fiber monomial as a derivation,
    multiplying factor by factor in the fiber algebra; gamma_word pulls
    each base coefficient to the far left of a word; total_d is the
    differential of N (x) Bbar(F), with no cache, and flatness is
    total_d(total_d(1 (x) word)) = 0 on every word of degree -1..2 (the
    failures are (n, w, word))."""

    def __init__(self, X, w_max):
        self.X = X
        self.w_max = w_max
        self.F, self.conn = fiber_algebra(X)
        self.bar = BarComplex(self.F)
        self.flat, self.flat_failures = self._check_flat()

    def gamma_mono(self, mono):
        """{base mono: fiber Element}."""
        A = self.X.total
        out = {}
        factors = mono_factors(mono)
        prefix_deg = 0
        for i, name in enumerate(factors):
            gval = self.conn.get(name)
            if gval:
                prefix = factors[:i]
                suffix = factors[i + 1:]
                for b, fel in gval.items():
                    bdeg = A.mono_bidegree(b)[0]
                    # derivation sign for passing the prefix, plus the
                    # Koszul sign for pulling b to the far left
                    sgn = (-1) ** (prefix_deg * (1 + bdeg) % 2)
                    term = {UNIT: F(sgn)}
                    for nm in prefix:
                        term = self.F.multiply(term, el_gen(nm))
                    term = self.F.multiply(term, fel)
                    for nm in suffix:
                        term = self.F.multiply(term, el_gen(nm))
                    if term:
                        out.setdefault(b, {})
                        for fm, c in term.items():
                            _wadd(out[b], fm, c)
                        if not out[b]:
                            del out[b]
            prefix_deg += self.F.gen[name].coh
        return out

    def gamma_word(self, word):
        """{(base mono, word): coeff}."""
        A = self.X.total
        out = {}
        sig = 0
        for i, letter in enumerate(word):
            for b, fel in self.gamma_mono(letter).items():
                bdeg = A.mono_bidegree(b)[0]
                sgn = (-1) ** (sig * (1 + bdeg) % 2)
                for fm, c in fel.items():
                    if fm == UNIT:
                        nw = word[:i] + word[i + 1:]
                    else:
                        nw = word[:i] + (fm,) + word[i + 1:]
                    _wadd(out, (b, nw), c * F(sgn))
            sig += self.bar._ebar(letter)
        return out

    def gamma_lin(self, lin):
        out = {}
        for word, c in lin.items():
            for key, c2 in self.gamma_word(word).items():
                _wadd(out, key, c * c2)
        return out

    def total_d(self, t):
        A = self.X.total
        out = {}
        for (b, word), c in t.items():
            for bm, bc in A.apply_d({b: F(1)}).items():
                _wadd(out, (bm, word), c * bc)
            bdeg = A.mono_bidegree(b)[0]
            sgn = F((-1) ** (bdeg % 2))
            for nw, c2 in self.bar.d_word(word).items():
                _wadd(out, (b, nw), c * c2 * sgn)
            for (b2, nw), c2 in self.gamma_word(word).items():
                prod = A.multiply({b: F(1)}, {b2: F(1)})
                for bm, bc in prod.items():
                    _wadd(out, (bm, nw), c * c2 * bc * sgn)
        return out

    def _check_flat(self):
        fails = []
        for w in range(self.w_max + 1):
            for n in (-1, 0, 1, 2):
                for word in self.bar.slice(n, w):
                    t = {(UNIT, word): F(1)}
                    if self.total_d(self.total_d(t)):
                        fails.append((n, w, word))
        return (not fails), fails


def reference_eps(X, el):
    """The augmentation A -> N of X on el: the terms whose monomials have
    base factors only, each coefficient times Fraction(1)."""
    out = {}
    for mono, c in el.items():
        if all(name in X.base_names for name, _ in mono):
            linalg._vec_iadd(out, {mono: F(1)}, c)
    return out


def reference_coaction_split(X, w_max):
    """The base's co-action on the degree-1 fiber generators g of weight <=
    w_max, read straight off d_A: {(g, t, u): Fraction c} for each monomial
    c t*u of d_A(g) with t a base and u a fiber generator, both of degree
    1; the coefficient is negated when u is stored before t, pulling one
    odd letter over the other."""
    A = X.total
    out = {}
    for g in X.fiber:
        if g.coh != 1 or g.adams > w_max:
            continue
        for mono, c in A.differential.get(g.name, {}).items():
            factors = mono_factors(mono)
            if len(factors) != 2:
                continue
            n1, n2 = factors
            if A.gen[n1].coh != 1 or A.gen[n2].coh != 1:
                continue
            if n1 in X.base_names and n2 not in X.base_names:
                _wadd(out, (g.name, n1, n2), F(c))
            elif n2 in X.base_names and n1 not in X.base_names:
                _wadd(out, (g.name, n2, n1), -F(c))
    return out


def reference_sp(X, w_max):
    """(p*, s*) on gamma at weights <= w_max, each {generator index:
    {generator index: c}}: p* classifies each base generator's
    representative in the total, and s* pushes each total generator's
    representative letter by letter through reference_eps and classifies
    it in the base.  The augmentation fixes the base, so s o p = id_N and
    s* o p* = id by functoriality (sp_composite)."""
    hopf_base = HopfPresentation(X.base, w_max)
    hopf_total = h0_hopf(X.total, w_max)
    gam_base = CoLiePresentation(hopf_base)
    gam_total = CoLiePresentation(hopf_total)
    p_star = {gi: gam_total.project(hopf_total.classify(
        hopf_base.rep_lins(w)[j], w), w)
        for gi, (w, j) in enumerate(gam_base.basis)}
    s_star = {gi: gam_base.project(hopf_base.classify(map_letters(
        hopf_total.rep_lins(w)[j],
        lambda letter: reference_eps(X, {letter: F(1)})), w), w)
        for gi, (w, j) in enumerate(gam_total.basis)}
    return p_star, s_star


def sp_composite(p_star, s_star):
    """{i: s*(p*(e_i))} for each generator index i of p*."""
    out = {}
    for gi, image in p_star.items():
        out[gi] = {}
        for gj, c in image.items():
            for gk, c2 in s_star[gj].items():
                _wadd(out[gi], gk, c * c2)
    return out


# ---- reference minimal model and cell resolution -------------------------


class ReferenceIdealComplex(linalg.SliceComplex):
    """The subcomplex of A killed by the augmentation aug, a generator map
    for A.substitute, per slice: the keys of slice (i, m) are the positions
    of the kernel vectors of aug in ideal_basis(i, m), so any generator
    map works, one that sends a generator to another element included."""

    def __init__(self, A: CdgaPresentation, aug):
        super().__init__()
        self.A = A
        self.aug = aug
        self._eps = {}

    def ideal_basis(self, i, m):
        """(ambient slice basis, kernel vectors of eps in slice coords,
        {monomial: slice position}, their KernelCoords)."""
        key = (i, m)
        if key not in self._eps:
            basis = self.A.slice(i, m)
            idx = {mm: k for k, mm in enumerate(basis)}
            eps = [{idx[em]: c for em, c in self.A.substitute(
                        {mono: 1}, self.aug).items()}
                   for mono in basis]
            # entries of denominator 1 as ints
            ker = [{j: _exact(x) for j, x in v.items()}
                   for v in linalg.kernel_basis(eps)]
            self._eps[key] = (basis, ker, idx, linalg.KernelCoords(ker))
        return self._eps[key]

    def slice_keys(self, i, m):
        return list(range(len(self.ideal_basis(i, m)[1])))

    def d_key(self, i, m, k):
        d = self.A.apply_d(self.from_coords({k: 1}, i, m))
        return self.to_coords(d, i + 1, m) if d else {}

    def to_coords(self, el, i, m):
        """Coordinates of an ideal element in the kernel basis: its entries
        at the free columns, if they account for all of it."""
        _, _, idx, reader = self.ideal_basis(i, m)
        coords = reader.class_coords({idx[mm]: c for mm, c in el.items()})
        if coords is None:
            raise ValueError("element not in the augmentation ideal")
        return coords

    def from_coords(self, v, i, m):
        """The ideal element of coordinates v, a coordinate of denominator
        1 taken as an int."""
        basis, ker, _, _ = self.ideal_basis(i, m)
        out = {}
        for k, c in v.items():
            linalg._vec_iadd(
                out, {basis[bi]: bc for bi, bc in ker[k].items()}, _exact(c))
        return out


def reference_minimal_model(N, A, n, w_max, rounds=6):
    """The stages of minimal.relative_minimal_model, each a loop of its own
    with a copied model and a new ReferenceIdealComplex in every round and
    for the certificate.  Returns model, structure_map, fiber_names,
    iterations (per stage) and certification."""
    model = CdgaPresentation(f"{A.name}_min", N.kind, N.generators,
                             N.differential, N.products)
    ic_A = ReferenceIdealComplex(A, {g.name: {} for g in A.generators
                                     if g.name not in N.gen})
    structure_map = {}
    fiber_names = []
    iterations = []
    counter = [0]

    def fresh_name():
        while True:
            name = f"mg{counter[0]}"
            counter[0] += 1
            if name not in A.gen and name not in model.gen:
                return name

    def adjoin(coh, adams, d_el, s_el):
        nonlocal model
        name = fresh_name()
        gens = model.generators + [GeneratorSpec(name, coh, adams)]
        diff = {**model.differential, name: d_el} if d_el else \
            model.differential
        model = CdgaPresentation(model.name, model.kind, gens, diff,
                                 model.products,
                                 {g: {} for g in fiber_names + [name]})
        fiber_names.append(name)
        structure_map[name] = s_el

    def h_map_columns(ic_M, i, m):
        dimM, repsM, _ = ic_M.cohomology(i, m)
        _, _, projA = ic_A.cohomology(i, m)
        cols = []
        for rv in repsM:
            img = A.substitute(ic_M.from_coords(rv, i, m), structure_map)
            cols.append(class_coords_inside(projA,
                                            ic_A.to_coords(img, i, m)))
        return dimM, cols

    for m in range(1, w_max + 1):
        for i in range(1, n + 1):
            it = 0
            while it < rounds:
                it += 1
                changed = False
                ic_M = ReferenceIdealComplex(model, model.augmentation)
                dimA, repsA, _ = ic_A.cohomology(i, m)
                _, cols = h_map_columns(ic_M, i, m)
                for cv in linalg.quotient_basis(
                        cols, [{k: F(1)} for k in range(dimA)]):
                    z = {}
                    for k, c in cv.items():
                        z = el_add(z, ic_A.from_coords(repsA[k], i, m), c)
                    adjoin(i, m, {}, z)
                    changed = True
                if changed:
                    continue
                ic_M = ReferenceIdealComplex(model, model.augmentation)
                _, repsM2, _ = ic_M.cohomology(i + 1, m)
                _, cols2 = h_map_columns(ic_M, i + 1, m)
                for kv in linalg.kernel_basis(cols2):
                    z = {}
                    for k, c in kv.items():
                        z = el_add(z, ic_M.from_coords(repsM2[k], i + 1, m),
                                   c)
                    target = ic_A.to_coords(A.substitute(z, structure_map),
                                            i + 1, m)
                    sol = linalg.solve(ic_A.d_columns(i, m), target)
                    assert sol is not None, (i, m)
                    adjoin(i, m, z, ic_A.from_coords(sol, i, m))
                    changed = True
                if not changed:
                    break
            iterations.append(it)

    ic_M = ReferenceIdealComplex(model, model.augmentation)
    certification = {}
    for m in range(1, w_max + 1):
        for i in range(1, n + 2):
            dimA = ic_A.cohomology(i, m)[0]
            dimM, cols = h_map_columns(ic_M, i, m)
            rank = len(reference_echelonize(cols)[0])
            if i <= n:
                certification[(i, m)] = dimA == dimM == rank
            else:
                certification[(i, m)] = rank == dimM
    return SimpleNamespace(model=model, structure_map=structure_map,
                           fiber_names=fiber_names, iterations=iterations,
                           certification=certification)


def structure_map_failures(mm, A):
    """The fiber generators g of a minimal model mm of A, in order, at
    which the structure map s does not commute with d: s(d g) != d_A s(g).
    s(d g) multiplies the images of d g's factors, a base generator its
    own image, through reference_multiply, and d_A s(g) is
    reference_apply_d."""
    s = mm.structure_map
    out = []
    for name in mm.fiber_names:
        lhs = {}
        for mono, c in mm.model.differential.get(name, {}).items():
            term = {UNIT: 1}
            for f in mono_factors(mono):
                term = reference_multiply(A, term, s.get(f, el_gen(f)))
            lhs = el_add(lhs, term, c)
        if el_add(lhs, reference_apply_d(A, s[name]), -1):
            out.append(name)
    return out


def exterior_square_failures(mm):
    """The fiber generators of a minimal model mm, in order, that are not
    of degree 1, or whose d has a term that is not a product of two
    degree-1 fiber generators."""
    model = mm.model
    deg1 = {g for g in mm.fiber_names if model.gen[g].coh == 1}
    return [g for g in mm.fiber_names
            if g not in deg1 or any(
                len(mono_factors(m)) != 2 or not deg1 >= set(mono_factors(m))
                for m in model.differential.get(g, {}))]


def reference_act(D, mono, vec):
    """FiniteDgModule.act: the vector multiplied by the monomial's
    generators, last factor first, each step a walk over every entry of
    the generator's action matrix."""
    out = dict(vec)
    for g in reversed(mono_factors(mono)):
        nxt = {}
        for (i, j), c in D.action.get(g, {}).items():
            x = out.get(j)
            if x:
                nxt[i] = nxt.get(i, 0) + c * x
        out = {k: v for k, v in nxt.items() if v}
    return out


def reference_d_element(M, mono, j):
    """CellModule.d_element: d(mono * b_j) by the Leibniz rule, d of the
    monomial and its product with each entry of d b_j recomputed through
    reference_apply_d and reference_multiply."""
    A = M.algebra
    out = {(dm, j): c
           for dm, c in reference_apply_d(A, {mono: 1}).items()}
    sign = -1 if A.mono_bidegree(mono)[0] % 2 else 1
    for (i, jj), a in M.differential.items():
        if jj == j:
            for pm, c in reference_multiply(A, {mono: 1}, a).items():
                out[(pm, i)] = out.get((pm, i), 0) + sign * c
    return {k: c for k, c in out.items() if c}


def reference_attach_cells(stages, top, target, source_reps, image, adjoin):
    """The loop of linalg.attach_cells with no store of class images:
    every round and the certificate image every source class again.
    STAGE_ROUNDS is read from linalg at the call."""
    def class_images(i, m):
        dim, _, projector = target.cohomology(i, m)
        reps = source_reps(i, m)
        return dim, reps, [projector.class_coords(image(i, m, v))
                           for v in reps]

    def classes(i, m):
        out = class_images(i, m)
        if None in out[2]:
            raise ValueError("vector outside the span of reps + image")
        return out

    def combine(coords, vectors):
        out = {}
        for k, c in coords.items():
            linalg._vec_iadd(out, vectors[k], c)
        return out

    stages = list(stages)
    rounds = []
    capped = set()
    for i, m in stages:
        d_solver = None
        for k in range(1, linalg.STAGE_ROUNDS + 1):
            dim, _, cols = classes(i, m)
            reps = target.cohomology(i, m)[1]
            cells = [(None, combine(cv, reps))
                     for cv in linalg.quotient_basis(
                         cols, [{j: linalg.ONE} for j in range(dim)])
                     ] if dim else []
            if not cells:
                _, reps, cols = classes(i + 1, m)
                kernel = linalg.kernel_basis(cols)
                if kernel and d_solver is None:
                    d_solver = linalg.solver(target.d_columns(i, m))
                for kv in kernel:
                    z = combine(kv, reps)
                    b = d_solver.class_coords(image(i + 1, m, z))
                    if b is None:
                        raise ValueError(f"the image of a kernel class at "
                                         f"({i + 1}, {m}) is not exact")
                    cells.append((z, b))
            if not cells:
                break
            adjoin(i, m, cells)
        else:
            capped.add((i, m))
        rounds.append(k)
    certificate = {}
    for i, m in stages + [(top + 1, m) for i, m in stages if i == top]:
        dim, reps, cols = class_images(i, m)
        certificate[(i, m)] = (
            None not in cols and len(linalg.Echelon(cols)) == len(reps)
            and (i > top or dim == len(reps)) and (i, m) not in capped)
    return rounds, certificate


def coarse_attach(attach):
    """CellModule.attach followed by a coarse forget: every cached slice
    of weight >= r and degree >= n + |mono|, for the lowest |mono| that
    joins a cached weight, and every grouping of weight >= r."""
    def attach_coarse(P, name, n, r, column):
        low = min((na for w in P._groups if w >= r
                   for na in P.algebra.by_degree(w - r)), default=0)
        attach(P, name, n, r, column)
        for cache in (P._slices, P._index, P._d, P._ker, P._coh):
            for key in [key for key in cache
                        if key[1] >= r and key[0] >= n + low]:
                del cache[key]
        for w in [w for w in P._groups if w >= r]:
            del P._groups[w]
    return attach_coarse


def reference_cell_resolution(D, coh_min, coh_max, adams_max, rounds=6):
    """cellmod.cell_resolution as its own loop: a fresh P in every round and
    for the certificate.  Returns (P, phi, certificate)."""
    from adamsbar.cellmod import CellModule, _strict_filtration

    A = D.algebra
    basis = []
    diff = {}
    phi = []

    def P_module():
        return CellModule(A, basis, diff, _strict_filtration(basis, diff),
                          0, "P")

    def phi_of(src, vec):
        img = {}
        for j, c in vec.items():
            mono, bi = src[j]
            for i, cc in reference_act(D, mono, phi[bi]).items():
                img[i] = img.get(i, F(0)) + c * cc
        return {i: c for i, c in img.items() if c}

    def class_map(P, n, r, read=class_coords_inside):
        dimD, repsD, projD = D.cohomology(n, r)
        _, repsP, _ = P.cohomology(n, r)
        src = P.slice_basis(n, r)
        pos = {b: k for k, b in enumerate(D.slice(n, r))}
        cols = [read(projD, {pos[i]: c for i, c in phi_of(src, rv).items()})
                for rv in repsP]
        return dimD, repsD, repsP, cols

    for n in range(coh_min, coh_max + 1):
        for r in range(0, adams_max + 1):
            changed = True
            guard = 0
            while changed and guard < rounds:
                guard += 1
                changed = False
                P = P_module()
                dimD, repsD, _, cols = class_map(P, n, r)
                missing = linalg.quotient_basis(
                    cols, [{k: F(1)} for k in range(dimD)])
                idxs = D.slice(n, r)
                for cv in missing:
                    vec = {}
                    for k, c in cv.items():
                        for b, cc in repsD[k].items():
                            vec[idxs[b]] = vec.get(idxs[b], F(0)) + c * cc
                    basis.append((f"p{len(basis)}", n, r))
                    phi.append({k: v for k, v in vec.items() if v})
                    changed = True
                if changed:
                    continue
                _, _, repsP2, cols2 = class_map(P, n + 1, r)
                src2 = P.slice_basis(n + 1, r)
                pos2 = {b: k for k, b in enumerate(D.slice(n + 1, r))}
                for kv in linalg.kernel_basis(cols2):
                    zvec = {}
                    for k, c in kv.items():
                        for j, cc in repsP2[k].items():
                            zvec[j] = zvec.get(j, F(0)) + c * cc
                    zvec = {j: c for j, c in zvec.items() if c}
                    bsol = linalg.solve(
                        D.d_columns(n, r),
                        {pos2[i]: c for i, c in phi_of(src2, zvec).items()})
                    assert bsol is not None, (n, r)
                    new_idx = len(basis)
                    basis.append((f"p{new_idx}", n, r))
                    phi.append({idxs[k]: c for k, c in bsol.items() if c})
                    for j, c in zvec.items():
                        mono, bi = src2[j]
                        diff[(bi, new_idx)] = el_add(
                            diff.get((bi, new_idx), {}), {mono: F(1)}, c)
                    changed = True

    P = P_module()
    certificate = {}
    for n in range(coh_min, coh_max + 2):
        for r in range(0, adams_max + 1):
            dimD, _, repsP, cols = class_map(
                P, n, r, read=lambda proj, v: proj.class_coords(v))
            if any(c is None for c in cols):
                certificate[(n, r)] = False
                continue
            rk = len(reference_echelonize(cols)[0])
            if n <= coh_max:
                certificate[(n, r)] = dimD == len(repsP) == rk
            else:
                certificate[(n, r)] = len(repsP) == rk
    return P, phi, certificate


# ---- reference t-structure truncation -----------------------------------


def reference_t_truncate(M, n):
    """cellmod.t_truncate as three separate constructions: tau_{<=n} and
    tau^{>n} each rewrite d's columns through a ReferenceProjector on
    their kept vectors (plus the complementary ones for the quotient), and
    H^n(Gamma) groups Gamma's degree-n rows by (weight, monomial) and
    projects them with the d0-cohomology projector of that weight.
    Returns (tau_<=n, tau^>n, H^n connection)."""
    from adamsbar.cellmod import (
        CellModule, ConnectionModule, ModuleError, _entries_at,
        _strict_filtration, to_connection)

    A = M.algebra
    q = M.q_complex()
    d_by_col = _entries_at(M.differential, 1)
    weights = sorted({a for (_, c, a) in M.basis if c == n})
    split = {}
    for r in weights:
        idxs = q.slice(n, r)
        ker = q.kernel(n, r)
        split[r] = (idxs, ker, linalg.quotient_basis(
            ker, [{k: F(1)} for k in range(len(idxs))]))

    def build_part(keep_low):
        new_basis = []
        kept = []
        other = []
        for i, (nm, c, a) in enumerate(M.basis):
            if (c < n and keep_low) or (c > n and not keep_low):
                new_basis.append((nm, c, a))
                kept.append({i: F(1)})
            elif c < n:
                other.append({i: F(1)})
        for r, (idxs, ker, comp) in split.items():
            for t, v in enumerate(ker if keep_low else comp):
                tag = "k" if keep_low else "c"
                new_basis.append((f"{tag}{n}w{r}_{t}", n, r))
                kept.append({idxs[b]: c for b, c in v.items()})
            if not keep_low:
                other.extend({idxs[b]: c for b, c in v.items()} for v in ker)
        return new_basis, kept, ReferenceProjector(kept, other)

    def express(el_by_index, proj):
        out = {}
        by_mono = {}
        for i, el in el_by_index.items():
            for mono, c in el.items():
                by_mono.setdefault(mono, {})[i] = c
        for mono, vec in by_mono.items():
            try:
                sol = proj.class_coords(vec)
            except ValueError:
                raise ModuleError(f"tau_<= not closed under d at degree "
                                  f"{n}, monomial {mono}") from None
            for k, c in sol.items():
                out.setdefault(k, {})
                out[k] = el_add(out[k], {mono: F(1)}, c)
        return out

    results = []
    for keep_low in (True, False):
        new_basis, kept, proj = build_part(keep_low)
        diff = {}
        for j, vj in enumerate(kept):
            col = {}
            for i, c in vj.items():
                for k, a in d_by_col.get(i, ()):
                    col[k] = el_add(col.get(k, {}), a, c)
            col = {k: v for k, v in col.items() if v}
            for k, a in express(col, proj).items():
                if a:
                    diff[(k, j)] = a
        filtration = _strict_filtration(new_basis, diff)
        results.append(CellModule(A, new_basis, diff, filtration, M.twist,
                                  f"tau{'<=' if keep_low else '>'}{n}{M.name}"))

    hn_basis = []
    hn_vectors = []
    projectors = {}
    for r in weights:
        idxs = q.slice(n, r)
        _, reps, proj = q.cohomology(n, r)
        projectors[r] = (q.index(n, r), proj, len(hn_basis))
        for t, v in enumerate(reps):
            hn_basis.append((f"h{n}w{r}_{t}", n, r))
            hn_vectors.append({idxs[b]: c for b, c in v.items()})
    gamma = {}
    gamma_by_col = _entries_at(to_connection(M).gamma, 1)
    for j, vj in enumerate(hn_vectors):
        col = {}
        for i, c in vj.items():
            for k, g in gamma_by_col.get(i, ()):
                col[k] = el_add(col.get(k, {}), g, c)
        by_mono = {}
        for k, el in col.items():
            _, ck, rk = M.basis[k]
            if ck != n:
                continue
            for mono, c in el.items():
                by_mono.setdefault((rk, mono), {})[k] = c
        for (rk, mono), vec in by_mono.items():
            pos, proj, base = projectors[rk]
            cls = class_coords_inside(
                proj, {pos[k]: c for k, c in vec.items()})
            for t, c in cls.items():
                key = (base + t, j)
                gamma[key] = el_add(gamma.get(key, {}), {mono: F(1)}, c)
    hn_conn = ConnectionModule(A, hn_basis, {}, gamma, M.twist)
    return results[0], results[1], hn_conn


# ---- reference word arithmetic ------------------------------------------
#
# The structure maps with no memo: every product and every d is recomputed
# from the generators and the table, and every shuffle is enumerated as a
# subset of positions with its Koszul sign read off the crossing pairs.


def _ref_ebar(A, m):
    return sum(e * A.gen[name].coh for name, e in m) - 1


def reference_shuffle_words(A, u, v):
    """The shuffle product of the words u and v over A: each interleaving
    is the set of positions of u's letters, with the sign
    (-1)^(sum ebar(u_i) ebar(v_j)) over the pairs where v_j lands before
    u_i."""
    out = {}
    n = len(u) + len(v)
    for upos in itertools.combinations(range(n), len(u)):
        vpos = [p for p in range(n) if p not in upos]
        word = [None] * n
        for p, letter in zip(upos, u):
            word[p] = letter
        for p, letter in zip(vpos, v):
            word[p] = letter
        exp = sum(_ref_ebar(A, u[i]) * _ref_ebar(A, v[j])
                  for i in range(len(u)) for j in range(len(v))
                  if vpos[j] < upos[i])
        _wadd(out, tuple(word), F(-1) if exp % 2 else F(1))
    return out


def _ref_sort_factors(A, factors):
    fs = list(factors)
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and fs[j - 1] > fs[j]:
            if A.gen[fs[j - 1]].coh % 2 and A.gen[fs[j]].coh % 2:
                sign = -sign
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    return fs, sign


def _ref_assemble(A, fs):
    for i in range(len(fs) - 1):
        if fs[i] == fs[i + 1] and A.gen[fs[i]].coh % 2:
            return {}
    for i in range(len(fs)):
        gi = A.gen[fs[i]]
        if gi.group is None:
            continue
        for j in range(i + 1, len(fs)):
            gj = A.gen[fs[j]]
            if gj.group != gi.group:
                continue
            sign = 1
            for k in range(i + 1, j):
                if gj.coh % 2 and A.gen[fs[k]].coh % 2:
                    sign = -sign
            a, b = fs[i], fs[j]
            val = A.products.get((a, b) if a <= b else (b, a), {})
            if a > b and gi.coh * gj.coh % 2:
                val = {m: -c for m, c in val.items()}
            mid = fs[i + 1:j] + fs[j + 1:]
            out = {}
            for vm, vc in val.items():
                rest, s = _ref_sort_factors(A, fs[:i] + mono_factors(vm) + mid)
                out = el_add(out, _ref_assemble(A, rest), vc * s * sign)
            return out
    mono = []
    for name in fs:
        if mono and mono[-1][0] == name:
            mono[-1] = (name, mono[-1][1] + 1)
        else:
            mono.append((name, 1))
    return {tuple(mono): 1}


def reference_multiply(A, a, b):
    """a * b in A, each product of two monomials sorted with its Koszul
    sign and reduced through the table afresh."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            fs, sign = _ref_sort_factors(A, mono_factors(m1) + mono_factors(m2))
            out = el_add(out, _ref_assemble(A, fs), c1 * c2 * sign)
    return out


def reference_apply_d(A, a):
    """d a in A by the Leibniz rule, factor by factor, through
    reference_multiply."""
    out = {}
    for m, c in a.items():
        fs = mono_factors(m)
        sgn = 1
        for i, name in enumerate(fs):
            dg = A.differential.get(name)
            if dg:
                term = {UNIT: 1}
                for pre in fs[:i]:
                    term = reference_multiply(A, term, el_gen(pre))
                term = reference_multiply(A, term, dg)
                for post in fs[i + 1:]:
                    term = reference_multiply(A, term, el_gen(post))
                out = el_add(out, term, c * sgn)
            if A.gen[name].coh % 2:
                sgn = -sgn
    return out


def reference_faces(bar, word):
    """BarComplex.faces(word) through bar.A.apply_d of {letter: 1} and
    bar.A.multiply of {letter: 1} and {next letter: 1}, the unit letter
    skipped for d."""
    A = bar.A
    out = []
    sig = 0
    for i, letter in enumerate(word):
        if letter != UNIT:
            for lm, c in A.apply_d({letter: 1}).items():
                out.append((i, 1, word[:i] + (lm,) + word[i + 1:],
                            -c if sig % 2 else c))
        ebar = A.mono_bidegree(letter)[0] - 1
        if i < len(word) - 1:
            prod = A.multiply({letter: 1}, {word[i + 1]: 1})
            s = sig + ebar
            for lm, c in prod.items():
                out.append((i, 2, word[:i] + (lm,) + word[i + 2:],
                            -c if s % 2 else c))
        sig += ebar
    return out


# ---- the reference slice enumeration -----------------------------------
#
# Each slice (n, r) walks every key of weight r and keeps those of degree
# n, so a weight is walked once per degree asked.


def reference_slice_keys(A, n, r):
    """The monomial basis of A^n(r), sorted: every monomial of weight r
    over the name-sorted generators, kept when its degree is n."""
    if r < 0:
        return []
    if r == 0:
        return [UNIT] if n == 0 else []
    found = []
    gens = sorted(A.generators, key=lambda g: g.name)

    def rec(idx, mono, coh, adams, used_groups):
        if adams == r:
            if coh == n:
                found.append(tuple(mono))
            return
        if idx == len(gens):
            return
        g = gens[idx]
        rec(idx + 1, mono, coh, adams, used_groups)
        if g.group is not None:
            if g.group in used_groups:
                return
            if adams + g.adams <= r:
                rec(idx + 1, mono + [(g.name, 1)], coh + g.coh,
                    adams + g.adams, used_groups | {g.group})
            return
        emax = (r - adams) // g.adams
        if g.coh % 2:
            emax = min(emax, 1)
        for e in range(1, emax + 1):
            rec(idx + 1, mono + [(g.name, e)], coh + e * g.coh,
                adams + e * g.adams, used_groups)

    rec(0, [], 0, 0, frozenset())
    return sorted(found)


def word_bidegree(A, word):
    """(degree, weight) of a bar word on the algebra A: its letters'
    bidegrees summed, less one degree per letter."""
    n = r = 0
    for m in word:
        mn, mr = A.mono_bidegree(m)
        n += mn
        r += mr
    return n - len(word), r


def reference_delta_basis(bar, nn, deg, w):
    """The pairs (S, word) of degree deg and weight w of the simplicial
    approximation over the nn-simplex, sorted: every word of at most nn
    letters, the unit letter allowed, listed letter by letter with no
    memo, its degree taken by word_bidegree, and its faces S of the
    simplex with one more vertex than letters."""
    def words(w, m):
        if m == 0:
            return [()] if w == 0 else []
        return [(letter,) + tail
                for r in range(w + 1)
                for letter in ([UNIT] if r == 0 else bar.letters(r))
                for tail in words(w - r, m - 1)]

    return sorted((S, word)
                  for m in range(nn + 1)
                  for word in words(w, m)
                  if word_bidegree(bar.A, word)[0] == deg
                  for S in itertools.combinations(range(nn + 1), m + 1))


def reference_delta_keys(da, deg, w):
    """The keys of slice (deg, w) of the DeltaApprox da, sorted, from
    reference_delta_basis over its whole simplex."""
    return reference_delta_basis(da.bar, da.n, deg, w)


def reference_bar_words(bar, w):
    """{n: the words of weight w and degree n, sorted}, as BarComplex
    built them before it walked by first letter: every word of weight w
    listed letter by letter, with no memo, each word's degree taken by
    word_bidegree and each group sorted."""
    def words(w):
        if w == 0:
            return [()]
        return [(letter,) + tail for r in range(1, w + 1)
                for letter in bar.letters(r) for tail in words(w - r)]

    groups = {}
    for word in words(w):
        groups.setdefault(word_bidegree(bar.A, word)[0], []).append(word)
    return {n: sorted(g) for n, g in groups.items()}


# ---- gamma by letter content ---------------------------------------------


def free_lie_dim(alpha):
    """Dimension of the free Lie algebra on len(alpha) letters in
    multidegree alpha, by Witt's formula:
    (1/n) sum_{d | gcd alpha} mu(d) (n/d)! / prod (alpha_i/d)!."""
    n = sum(alpha)
    g = gcd(*alpha)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            count = factorial(n // d)
            for a in alpha:
                count //= factorial(a // d)
            total += mobius(d) * count
    return total // n


def gamma_by_content(gam):
    """{(w, content): number of gamma generators of weight w}, content
    the tuple of multiplicities of the punctured line's letters a0, a1, ...
    in the words of the generator's class representative; every word of
    a representative must have the same content."""
    letters = sorted(g.name for g in gam.hopf.A.generators)
    out = {}
    for w, j in gam.basis:
        contents = set()
        for word in gam.hopf.rep_lins(w)[j]:
            counts = Counter()
            for letter in word:
                (name, e), = letter
                counts[name] += e
            contents.add(tuple(counts[a] for a in letters))
        (content,) = contents
        out[w, content] = out.get((w, content), 0) + 1
    return out


def witt_content_dims(k, w_max):
    """{(w, alpha): free_lie_dim(alpha)} over the multidegrees alpha of
    k - 1 letters with 1 <= |alpha| = w <= w_max and a nonzero dimension."""
    out = {}
    for w in range(1, w_max + 1):
        for alpha in itertools.product(range(w + 1), repeat=k - 1):
            if sum(alpha) == w:
                dim = free_lie_dim(alpha)
                if dim:
                    out[w, alpha] = dim
    return out


# ---- K_k dims --------------------------------------------------------------


def k_kernel_dims(k, w_max):
    """{w: dim H^0 of the fiber of K_k} for w <= w_max.  The fiber is free
    on k - 1 letters of weight 1 and k - 1 of weight 2 with d = 0 and no
    relation among products, so gamma is abelian and H^0 is the
    polynomial algebra on it: the coefficients of
    (1 - t)^-(k-1) (1 - t^2)^-(k-1)."""
    coeffs = [1] + [0] * w_max
    for step in (1, 2):
        for _ in range(k - 1):
            for i in range(step, w_max + 1):
                coeffs[i] += coeffs[i - step]
    return dict(enumerate(coeffs))


def k_total_dims(k, w_max):
    """{w: dim H^0 of K_k}: the base E1 has H^0 of dim 1 in every weight,
    so these are the partial sums of k_kernel_dims."""
    out, acc = {}, 0
    for w, dim in k_kernel_dims(k, w_max).items():
        acc += dim
        out[w] = acc
    return out


# ---- Chevalley-Eilenberg complex of gamma ---------------------------------


def _rank(cols):
    return len(reference_echelonize(cols)[1])


def _wedge_add(out, idx, c):
    """out += c * e_i ^ e_j ^ ..., idx written in ascending order with the
    sign of the sort; a repeated index is 0."""
    if len(set(idx)) < len(idx):
        return
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    _wadd(out, tuple(sorted(idx)), -c if inversions % 2 else c)


def ce_dims(colie, w_max):
    """({w: dim H^1}, {w: dim H^2}) of the Chevalley-Eilenberg complex
    Lambda(gamma) for 1 <= w <= w_max, d e_g = cobracket[g] on Lambda^1
    and d(e_p ^ e_q) = d e_p ^ e_q - e_p ^ d e_q on Lambda^2.  H^2 at w
    is None where d d e_g != 0 for a generator g of weight w: there
    Lambda(gamma) is not a complex (the cobracket breaks co-Jacobi)."""
    delta = colie.cobracket
    weight = [w for w, _ in colie.basis]
    gens = range(len(weight))

    def by_weight(cells):
        out = {}
        for c in cells:
            out.setdefault(sum(weight[g] for g in c), []).append(c)
        return out

    wedge2 = by_weight(itertools.combinations(gens, 2))
    wedge3 = by_weight(itertools.combinations(gens, 3))

    def d2(p, q):
        out = {}
        for (a, b), c in delta[p].items():
            _wedge_add(out, (a, b, q), c)
        for (a, b), c in delta[q].items():
            _wedge_add(out, (p, a, b), -c)
        return out

    h1, h2 = {}, {}
    for w in range(1, w_max + 1):
        pairs, triples = wedge2.get(w, []), wedge3.get(w, [])
        at2 = {pq: i for i, pq in enumerate(pairs)}
        at3 = {t: i for i, t in enumerate(triples)}
        gens_w = [g for g in gens if weight[g] == w]
        d_pairs = {pq: d2(*pq) for pq in pairs}
        rank1 = _rank([{at2[pq]: c for pq, c in delta[g].items()}
                       for g in gens_w])
        rank2 = _rank([{at3[t]: c for t, c in d_pairs[pq].items()}
                       for pq in pairs])
        dd = []
        for g in gens_w:
            acc = {}
            for pq, c in delta[g].items():
                for t, x in d_pairs[pq].items():
                    _wadd(acc, t, c * x)
            dd.append(acc)
        h1[w] = len(gens_w) - rank1
        h2[w] = None if any(dd) else len(pairs) - rank2 - rank1
    return h1, h2


def cdga_h_dims(A, n, w_max):
    """{w: dim H^n(A) at weight w} for 1 <= w <= w_max, from A's d as
    columns and reference_echelonize."""
    return {w: len(A.slice(n, w)) - _rank(A.d_columns(n, w))
            - _rank(A.d_columns(n - 1, w)) for w in range(1, w_max + 1)}


def linear_h1_dims(A, w_max):
    """{w: dim H^1(V, d1)_w} for 1 <= w <= w_max, V the generators of a
    free A of weight w graded by degree and d1 the linear part of d, its
    terms that are one generator: the count of degree-1 generators of A's
    minimal model, so of gamma_w of H^0(Bbar A)."""
    out = {}
    for w in range(1, w_max + 1):
        gens = {}
        for g in A.generators:
            if g.adams == w:
                gens.setdefault(g.coh, []).append(g.name)

        def d1(i):
            at = {name: k for k, name in enumerate(gens.get(i + 1, []))}
            return [{at[m[0][0]]: c
                     for m, c in A.differential.get(name, {}).items()
                     if len(m) == 1 and m[0][1] == 1}
                    for name in gens.get(i, [])]

        out[w] = len(gens.get(1, [])) - _rank(d1(1)) - _rank(d1(0))
    return out


def _reference_key(k):
    if isinstance(k, tuple):
        return ",".join(str(_reference_key(p)) for p in k)
    return str(k)


def _reference_jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {_reference_key(k): _reference_jsonable(v)
                for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_reference_jsonable(v) for v in x]
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    return str(x)


def reference_report_text(report):
    """The text of a report, without its final newline: keys as str
    (tuples joined by commas), Fractions and other values as their str,
    then json.dumps with sorted keys and an indent of 2."""
    return json.dumps(_reference_jsonable(report), sort_keys=True, indent=2)


# ---- the reference reader -------------------------------------------------

# group 1 is a token; a character outside it starts no token, an error
_REF_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|\d+|[=*+/-])|\S")


def _ref_tokens(text, lineno):
    """The (token, column) pairs of a line, in one regex pass; whitespace
    only separates tokens."""
    out = []
    for m in _REF_TOKEN.finditer(text):
        tok = m[1]
        if tok is None:
            raise ParseError(f"bad character {m[0]!r}", lineno, m.start() + 1)
        out.append((tok, m.start() + 1))
    return out


class _RefCursor:
    def __init__(self, toks, lineno):
        self.toks = toks
        self.i = 0
        self.lineno = lineno

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self, expect=None):
        if self.i >= len(self.toks):
            raise ParseError(
                f"unexpected end of line (wanted {expect or 'more input'})",
                self.lineno,
            )
        tok, col = self.toks[self.i]
        self.i += 1
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}", self.lineno, col)
        return tok, col

    def done(self):
        if self.i < len(self.toks):
            tok, col = self.toks[self.i]
            raise ParseError(f"trailing input {tok!r}", self.lineno, col)


def _ref_parse_int(cur, what):
    tok, col = cur.next(expect=None)
    neg = False
    if tok == "-":
        neg = True
        tok, col = cur.next()
    if not tok.isdigit():
        raise ParseError(f"expected {what}, got {tok!r}", cur.lineno, col)
    return -int(tok) if neg else int(tok)


def _ref_parse_rational(cur):
    """The rational as an int when its denominator is 1, else as a
    Fraction."""
    val = _ref_parse_int(cur, "rational")
    if cur.peek() == "/":
        cur.next()
        tok, col = cur.next()
        if not tok.isdigit() or int(tok) == 0:
            raise ParseError(
                f"expected positive denominator, got {tok!r}", cur.lineno, col
            )
        val = F(val, int(tok))
        if val.denominator == 1:
            val = val.numerator
    return val


def _ref_declared(cur, declared, what="identifier"):
    """The next token, a name that must be in declared."""
    tok, col = cur.next()
    if tok not in declared:
        raise ParseError(f"undeclared {what} {tok!r}", cur.lineno, col)
    return tok


def _ref_declaration(cur, declared, what, least):
    """(name, degree, weight) of a `name deg n wt w` line: the name is new
    and w >= least, else the error is at the name's column."""
    name, col = cur.next()
    if name in declared:
        raise ParseError(f"duplicate {what} {name!r}", cur.lineno, col)
    cur.next(expect="deg")
    deg = _ref_parse_int(cur, "degree")
    cur.next(expect="wt")
    wt = _ref_parse_int(cur, "weight")
    cur.done()
    if wt < least:
        raise ParseError(f"{what} {name!r} has weight {wt} < {least}",
                         cur.lineno, col)
    return name, deg, wt


def _ref_signed_terms(cur, declared, A):
    """Each term of a signed sum that runs to the end of the line, with its
    sign, as an element normalized in the algebra A: an optional leading
    '-', then term (('+'|'-') term)*.  The caller may read on after each
    term (reference_bind_cell reads its element) before it asks for the next."""
    sign = 1
    if cur.peek() == "-":
        cur.next()
        sign = -1
    while True:
        coeff = _ref_parse_rational(cur)
        names = []
        while cur.peek() == "*":
            cur.next()
            names.append(_ref_declared(cur, declared))
        term = {UNIT: sign * coeff}
        for name in names:
            term = A.multiply(term, {((name, 1),): 1})
        yield term
        nxt = cur.peek()
        if nxt is None:
            return
        if nxt not in ("+", "-"):
            tok, col = cur.toks[cur.i]
            raise ParseError(f"expected '+' or '-', got {tok!r}",
                             cur.lineno, col)
        cur.next()
        sign = 1 if nxt == "+" else -1


def _ref_parse_poly(cur, declared, A):
    """The sum of _ref_signed_terms: a polynomial normalized in the algebra A."""
    out = {}
    for term in _ref_signed_terms(cur, declared, A):
        linalg._vec_iadd(out, term, 1)
    return out


def reference_parse_text(text):
    """Parse a presentation file, as parser.parse_text does.

    Returns ("cdga", CdgaPresentation) or ("cell", cell-spec dict); bind
    the latter to its algebra with reference_bind_cell.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _ref_tokens(raw.split("#", 1)[0], lineno)
        if toks:
            lines.append((lineno, toks))
    if not lines:
        raise ParseError("empty file", 1)
    head_line, head = lines[0]
    kind_tok = head[0][0]
    if kind_tok == "cdga":
        return "cdga", _ref_parse_cdga(lines)
    if kind_tok == "cell":
        return "cell", _ref_parse_cell(lines)
    raise ParseError(
        f"file must start with 'cdga' or 'cell', got {kind_tok!r}", head_line
    )


def _ref_parse_cdga(lines):
    cur = _RefCursor(lines[0][1], lines[0][0])
    cur.next(expect="cdga")
    name, _ = cur.next()
    kind, col = cur.next()
    if kind not in ("free", "table"):
        raise ParseError(f"kind must be free or table, got {kind!r}",
                         cur.lineno, col)
    cur.done()
    group = name if kind == "table" else None
    gens = []
    declared = set()
    # mul lines and d/aug lines, each with its cursor and the names
    # declared above it; their sums are read once every generator exists
    products, maps = [], []
    for lineno, toks in lines[1:]:
        cur = _RefCursor(toks, lineno)
        op, col = cur.next()
        if op == "gen":
            gname, deg, wt = _ref_declaration(cur, declared, "generator", 1)
            gens.append(GeneratorSpec(gname, deg, wt, group=group))
            declared.add(gname)
        elif op in ("d", "aug"):
            target = _ref_declared(cur, declared)
            cur.next(expect="=")
            maps.append((op, target, cur, set(declared)))
        elif op == "mul":
            if kind != "table":
                raise ParseError("mul line in a free presentation", lineno, col)
            # both names are read before either is checked, so a line
            # that ends early reports its end
            names = _RefCursor([cur.next(), cur.next()], lineno)
            pair = _ref_declared(names, declared), _ref_declared(names, declared)
            cur.next(expect="=")
            products.append((pair, cur, set(declared)))
        else:
            raise ParseError(f"unknown directive {op!r}", lineno, col)
    A = CdgaPresentation(name, kind, gens)
    # products first, so later polynomials normalize through the table
    for pair, cur, seen in products:
        A.set_product(*pair, _ref_parse_poly(cur, seen, A))
    differential, augmentation = {}, {}
    for op, target, cur, seen in maps:
        val = _ref_parse_poly(cur, seen, A)
        if op == "aug":
            augmentation[target] = val
        elif val:
            differential[target] = val
    return CdgaPresentation(name, kind, gens, differential, A.products,
                            augmentation)


def _ref_parse_cell(lines):
    cur = _RefCursor(lines[0][1], lines[0][0])
    cur.next(expect="cell")
    name, _ = cur.next()
    cur.next(expect="over")
    over, _ = cur.next()
    cur.done()
    elts = []
    declared = {}
    dlines = []
    for lineno, toks in lines[1:]:
        cur = _RefCursor(toks, lineno)
        op, col = cur.next()
        if op == "elt":
            elt = _ref_declaration(cur, declared, "element", 0)
            declared[elt[0]] = len(elts)
            elts.append(elt)
        elif op == "d":
            target = _ref_declared(cur, declared, "element")
            cur.next(expect="=")
            dlines.append((target, cur))
        else:
            raise ParseError(f"unknown directive {op!r}", lineno, col)
    return {"name": name, "over": over, "elts": elts, "declared": declared,
            "dlines": dlines}


def reference_bind_cell(spec, A: CdgaPresentation):
    """Resolve a spec of reference_parse_text against its algebra, as
    parser.bind_cell does.

    Each entry of d accumulates its terms in place, with int coefficients
    where they are integral, as _ref_parse_poly does; an entry that cancels
    is dropped at once, so a later term on it appends it anew.  Every
    stored coefficient becomes one Fraction at the end.  A d that admits
    no strict filtration is a ParseError at the first d line of the
    lowest element it leaves without a stage."""
    declared = spec["declared"]
    diff = {}
    for target, cur in spec["dlines"]:
        j = declared[target]
        for el in _ref_signed_terms(cur, A.gen, A):
            key = (declared[_ref_declared(cur, declared, "element")], j)
            entry = diff.setdefault(key, {})
            linalg._vec_iadd(entry, el, 1)
            if not entry:
                del diff[key]
    diff = {key: {m: F(c) for m, c in entry.items()}
            for key, entry in diff.items()}
    try:
        filtration = _strict_filtration(spec["elts"], diff)
    except FiltrationError as e:
        name = spec["elts"][e.index][0]
        line = next(cur.lineno for target, cur in spec["dlines"]
                    if target == name)
        raise ParseError(f"d of element {name!r} admits no strict "
                         "filtration", line) from None
    return CellModule(A, spec["elts"], diff, filtration, 0, spec["name"])
