"""Finite cell modules over a cdga, connections, and the t-structure.

A cell module is free as a bigraded module on a finite filtered basis;
the differential is a matrix of algebra elements, strictly triangular
with respect to the filtration.  Tate twists are tracked as a global
integer offset so that stored Adams degrees stay within the engine's
windows: true adams = stored adams + twist.

Splitting each entry into its scalar part and its positive-weight part
gives the equivalent connection presentation (M_0, d0) with Gamma valued
in A+; flatness of Gamma is exactly the positive-weight part of d^2 = 0.

The two checks on matrices of algebra elements share one sparse signed
composition, _compose: d^2 = 0 composes d with itself on top of d applied
entrywise; flatness is that same d^2 for d = d0 + Gamma with its scalar
(d0^2) part dropped.  Scalar complexes (q of a cell module, the finite dg
modules that cell_resolution resolves) are one class, ScalarComplex.

The t-structure is one induced map, _induced: the map a matrix of
algebra elements (d, or Gamma) induces on a span of vectors modulo
another, each monomial's coefficients written through the projector of
linalg.cocycle_classes.  tau_{<=n}, tau^{>n} and H^n(Gamma) are three
calls to it.

cell_resolution attaches cells with linalg.attach_cells, the loop minimal
models use: the source is the cell module P, which grows in place and
forgets only the slices a new cell's keys join, with the cohomology one
degree above each (CellModule.attach), and the target is the finite dg
module, whose action on each key of P is read once.

The bookkeeping around the algebra is linear in the size of a module.
d_element reads the algebra's memoized d and products of monomials, and
act reads the action matrices, indexed by column, at a vector's support.
The coarsest strict filtration of a differential is found by Kahn's
layering, each entry visited once (_strict_filtration), and a basis
index's stage is read from a dict.  A cell module's slices of one weight
come from one walk over its basis and the algebra's degree groups at the
complementary weights (CellModule.group_keys), so no slice is sorted.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .cdga import (CdgaPresentation, UNIT, bidegree_failures, el_add,
                   el_scale, mono_factors)
from .linalg import ONE, _vec_iadd

F = Fraction


class ModuleError(Exception):
    pass


class FiltrationError(ModuleError):
    """No strict filtration; index is the lowest unstaged index."""

    def __init__(self, index):
        super().__init__("differential admits no strict filtration")
        self.index = index


def _entries_at(matrix, axis):
    """{t: [(s, entry), ...]}: the entries of a sparse matrix
    {(row, col): entry} grouped by column (axis=1) or by row (axis=0), s the
    other index; each list keeps the matrix's own order."""
    out = {}
    for key, a in matrix.items():
        out.setdefault(key[axis], []).append((key[1 - axis], a))
    return out


def _compose(A, acc, X, Y):
    """Add sum_i (-1)^|X_ij| X_ij * Y_ki to acc[(k, j)], for matrices X, Y
    of algebra elements {(row, col): Element}.

    Only nonzero entries are visited: Y is indexed by column once and X is
    walked in ascending i, so each acc[(k, j)] receives its terms in the
    order of the dense loop over i.  The sign is taken monomial by
    monomial, which is (-1)^|X_ij| for a homogeneous entry.
    """
    by_col = _entries_at(Y, 1)
    for (i, j), x in sorted(X.items()):
        if i not in by_col:
            continue
        sx = {m: -v if A.mono_bidegree(m)[0] % 2 else v
              for m, v in x.items()}
        for k, y in by_col[i]:
            acc[(k, j)] = el_add(acc.get((k, j), {}), A.multiply(sx, y))


def _nonzero(acc):
    """Positions (k, j) of the nonzero entries of acc, ordered by j then k."""
    return sorted((kj for kj, a in acc.items() if a),
                  key=lambda kj: (kj[1], kj[0]))


class CellModule(linalg.SliceComplex):
    """A cell module as a SliceComplex over Q: the keys of slice (n, r) are
    the pairs (algebra monomial, basis index) of that bidegree, in STORED
    Adams degrees."""

    def __init__(self, algebra: CdgaPresentation, basis, differential,
                 filtration=None, twist=0, name="M"):
        """basis: list of (name, coh, adams); differential: {(i, j): Element}
        meaning d b_j = sum_i a_ij b_i; filtration: list of index lists."""
        super().__init__()
        self.algebra = algebra
        self.basis = list(basis)
        self.differential = {k: v for k, v in differential.items() if v}
        self._d_by_col = _entries_at(self.differential, 1)
        self.twist = twist
        self.name = name
        if filtration is None:
            filtration = [[i] for i in range(len(basis))]
        self.filtration = [list(s) for s in filtration]
        self._stage = {}  # basis index -> its first stage
        for s, idxs in enumerate(self.filtration):
            for i in idxs:
                self._stage.setdefault(i, s)

    def stage(self, i):
        if i not in self._stage:
            raise ModuleError(f"basis index {i} missing from filtration")
        return self._stage[i]

    def _bidegree_failures(self):
        """One message per entry a_ij of d that is inhomogeneous or not of
        bidegree (cj + 1 - ci, rj - ri), which d of bidegree (+1, 0)
        needs, read by cdga's one bidegree check."""
        expected = []
        for (i, j), a in self.differential.items():
            _, ci, ri = self.basis[i]
            _, cj, rj = self.basis[j]
            expected.append(((i, j), a, (cj + 1 - ci, rj - ri)))
        return bidegree_failures(self.algebra, expected,
                                 lambda ij: f"entry ({ij[0]},{ij[1]})")

    def check_bidegrees(self):
        """Raise ModuleError naming each entry of d of the wrong bidegree;
        every slice computation assumes they are right."""
        failures = self._bidegree_failures()
        if failures:
            raise ModuleError(f"{self.name}: " + "; ".join(failures))

    def check(self):
        """(ok, messages) of d bidegree (+1, 0) and d^2 = 0; every module
        built here is strict by construction, so its filtration is not
        checked."""
        A = self.algebra
        failures = self._bidegree_failures()
        acc = {kj: A.apply_d(a) for kj, a in self.differential.items()}
        _compose(A, acc, self.differential, self.differential)
        # the witness shows Fraction coefficients, whether the entries
        # were written with ints or Fractions
        failures.extend(
            f"d^2 != 0 at (k={k}, j={j}): "
            f"{ {m: F(c) for m, c in acc[(k, j)].items()} }"
            for k, j in _nonzero(acc))
        return (not failures), failures

    # ---- slice complexes over Q ---------------------------------------

    def group_keys(self, r):
        """{n: the pairs (mono, j) of slice (n, r)}, from one walk over the
        basis and the algebra's degree groups; each group is ordered by j,
        then by the algebra's sorted monomials."""
        out = {}
        for j, (_, cj, rj) in enumerate(self.basis):
            if rj <= r:
                for na, monos in self.algebra.by_degree(r - rj).items():
                    out.setdefault(na + cj, []).extend(
                        (mono, j) for mono in monos)
        return out

    def slice_basis(self, n, r):
        """slice(n, r), under the name bench/worker.py calls."""
        return self.slice(n, r)

    def d_key(self, n, r, key):
        return self.d_element(*key)

    def d_element(self, mono, j):
        """d(mono * b_j) as {(monomial, index): coeff}, read off the
        algebra's memoized d and products of monomials, so a coefficient
        is an int where they and d's entries are."""
        A = self.algebra
        out = {(dm, j): c for dm, c in A.mono_d(mono).items()}
        odd = A.mono_bidegree(mono)[0] % 2
        for i, a in self._d_by_col.get(j, ()):
            prod = {}
            for am, c in a.items():
                _vec_iadd(prod, A.mono_mul(mono, am), -c if odd else c)
            for pm, c in prod.items():
                key = (pm, i)
                if key in out:
                    out[key] += c
                else:
                    out[key] = c
        return {k: c for k, c in out.items() if c}

    def attach(self, name, n, r, column):
        """Append a cell b_j of bidegree (n, r) with d b_j = sum_i
        column[i] b_i (nonzero Elements), one stage above its boundary's
        highest.  Its keys (mono, j) come last in every slice (group_keys
        walks j in order) and lie in d of no older key, so the older keys'
        positions, d columns and kernels stay right.  The keys are
        appended in place to each cached grouping they join, at (n +
        |mono|, r + wt(mono)), in the order group_keys walks them; of the
        other caches only the slices they join go, with the cohomology
        one degree above each, into which their new d columns map."""
        j = len(self.basis)
        self.basis.append((name, n, r))
        for i, a in column.items():
            self.differential[(i, j)] = a
        self._d_by_col[j] = list(column.items())
        s = 1 + max((self.stage(i) for i in column), default=-1)
        if s == len(self.filtration):
            self.filtration.append([])
        self.filtration[s].append(j)
        self._stage[j] = s
        # every cached entry's slice is cached, and so is its weight's
        # grouping
        for w, groups in self._groups.items():
            if w < r:
                continue
            for na, monos in self.algebra.by_degree(w - r).items():
                nn = n + na
                groups.setdefault(nn, []).extend((mono, j) for mono in monos)
                for cache in (self._slices, self._index, self._d, self._ker,
                              self._coh):
                    cache.pop((nn, w), None)
                self._coh.pop((nn + 1, w), None)

    # ---- q functor -----------------------------------------------------

    def q_complex(self):
        """(basis, scalar differential entries): M tensored down to Q."""
        d0 = {}
        for (i, j), a in self.differential.items():
            c = a.get(UNIT)
            if c:
                d0[(i, j)] = c
        return ScalarComplex(self.basis, d0)


class ScalarComplex(linalg.SliceComplex):
    """Finite complex of bigraded rational spaces.

    basis: list of (name, coh, adams); d: {(i, j): Fraction} of bidegree
    (+1, 0), meaning d b_j = sum_i d_ij b_i; an entry of another bidegree
    raises ModuleError.  The keys of slice (n, r) are the basis indices of
    that bidegree.
    """

    def __init__(self, basis, d):
        super().__init__()
        self.basis = list(basis)
        self.d = {k: F(v) for k, v in d.items() if v}
        for (i, j), c in self.d.items():
            (_, ci, ri), (_, cj, rj) = self.basis[i], self.basis[j]
            if (ci - cj, ri - rj) != (1, 0):
                raise ModuleError(
                    f"d entry ({i},{j}) = {c} has bidegree "
                    f"({ci - cj}, {ri - rj}), expected (1, 0)")
        self._indices = {}
        for i, (_, c, a) in enumerate(self.basis):
            self._indices.setdefault((c, a), []).append(i)
        self._by_col = _entries_at(self.d, 1)

    def slice_keys(self, n, r):
        return self._indices.get((n, r), [])

    def d_key(self, n, r, b):
        return dict(self._by_col.get(b, ()))

    def cohomology_dim(self, n, r):
        return self.cohomology(n, r)[0]

    def cohomology_dims(self):
        """{(n, r): dim H^n at weight r} over the bidegrees of the basis,
        nonzero dimensions only; H vanishes at every other bidegree."""
        dims = {nr: self.cohomology_dim(*nr) for nr in sorted(self._indices)}
        return {nr: dim for nr, dim in dims.items() if dim}


class ConnectionModule:
    """(M_0, d0) with an A+-valued connection Gamma, as basis matrices."""

    def __init__(self, algebra, basis, d0, gamma, twist=0):
        self.algebra = algebra
        self.basis = list(basis)
        self.d0 = {k: F(v) for k, v in d0.items() if v}
        self.gamma = {k: v for k, v in gamma.items() if v}
        self.twist = twist

    def _d(self):
        """d = d0 + Gamma as one matrix of algebra elements."""
        d = {}
        for (i, j), c in self.d0.items():
            d[(i, j)] = el_add(d.get((i, j), {}), {UNIT: ONE}, c)
        for (i, j), g in self.gamma.items():
            d[(i, j)] = el_add(d.get((i, j), {}), g)
        return d

    def check_flat(self):
        """Positions where the positive-weight part of d^2, d = d0 + Gamma,
        is nonzero: dGamma + Gamma^2 plus the d0 cross terms.  The scalar
        part d0^2 is not checked."""
        d = self._d()
        acc = {kj: self.algebra.apply_d(a) for kj, a in d.items()}
        _compose(self.algebra, acc, d, d)
        for a in acc.values():
            a.pop(UNIT, None)
        failures = _nonzero(acc)
        return (not failures), failures


def to_connection(M: CellModule) -> ConnectionModule:
    d0 = {}
    gamma = {}
    for (i, j), a in M.differential.items():
        c = a.get(UNIT)
        if c:
            d0[(i, j)] = c
        plus = {m: x for m, x in a.items() if m != UNIT}
        if plus:
            gamma[(i, j)] = plus
    return ConnectionModule(M.algebra, M.basis, d0, gamma, M.twist)


def _strict_filtration(basis, diff):
    """The coarsest strict filtration of a basis under d: stage s holds,
    in ascending order, the indices j whose every entry (i, j) of d, a
    cancelled one included, has i in a stage below s, and one in stage
    s - 1.  Kahn's layering: an index joins the next stage when the last
    of its entries' rows is placed, so each entry is visited once.  It
    stages a cell module's cells, and raises FiltrationError."""
    waiting = [0] * len(basis)  # entries of each column not yet placed
    for _, j in diff:
        waiting[j] += 1
    by_row = _entries_at(diff, 0)
    stage = [j for j, k in enumerate(waiting) if not k]
    stages = []
    while stage:
        stages.append(stage)
        nxt = []
        for i in stage:
            for j, _ in by_row.get(i, ()):
                waiting[j] -= 1
                if not waiting[j]:
                    nxt.append(j)
        stage = sorted(nxt)
    if any(waiting):
        raise FiltrationError(next(j for j, k in enumerate(waiting) if k))
    return stages


# ---- constructions -----------------------------------------------------


def tate(A: CdgaPresentation, n: int) -> CellModule:
    """A<n>: rank one, generator of true Adams degree -n."""
    return CellModule(A, [(f"b{n}", 0, 0)], {}, twist=-n, name=f"A<{n}>")


def shift(M: CellModule, k: int = 1) -> CellModule:
    """M[k]: cohomological degrees drop by k, differential times (-1)^k."""
    basis = [(nm, c - k, a) for (nm, c, a) in M.basis]
    diff = {key: el_scale(a, (-1) ** (k % 2))
            for key, a in M.differential.items()}
    return CellModule(M.algebra, basis, diff, M.filtration, M.twist,
                      f"{M.name}[{k}]")


def tensor_mod(M: CellModule, N: CellModule) -> CellModule:
    if M.algebra is not N.algebra:
        raise ModuleError("tensor of modules over different algebras")
    A = M.algebra
    nN = len(N.basis)

    def pair(i, j):
        return i * nN + j

    basis = []
    for (nm1, c1, a1) in M.basis:
        for (nm2, c2, a2) in N.basis:
            basis.append((f"{nm1}*{nm2}", c1 + c2, a1 + a2))
    diff = {}
    for (k, i), a in M.differential.items():
        for j in range(nN):
            diff[(pair(k, j), pair(i, j))] = el_add(
                diff.get((pair(k, j), pair(i, j)), {}), a)
    for (l, j), a in N.differential.items():
        deg_a = A.el_bidegree(a)[0]
        for i, (_, ci, _) in enumerate(M.basis):
            # d(m (x) n): the sign for passing d over m, plus the Koszul
            # sign for moving the coefficient a across m
            s = (-1) ** ((ci + deg_a * ci) % 2)
            diff[(pair(i, l), pair(i, j))] = el_add(
                diff.get((pair(i, l), pair(i, j)), {}), el_scale(a, s))
    stageM = {i: M.stage(i) for i in range(len(M.basis))}
    stageN = {j: N.stage(j) for j in range(nN)}
    max_stage = max(list(stageM.values()) + [0]) + max(list(stageN.values()) + [0])
    filtration = [[] for _ in range(max_stage + 1)]
    for i in range(len(M.basis)):
        for j in range(nN):
            filtration[stageM[i] + stageN[j]].append(pair(i, j))
    filtration = [s for s in filtration if s]
    return CellModule(A, basis, diff, filtration, M.twist + N.twist,
                      f"{M.name}(x){N.name}")


def hom_complex(M: CellModule, N: CellModule) -> CellModule:
    """Hom_A(M, N) as a module on basis maps e_ij: b^M_j -> b^N_i.

    Differential convention: df(m) = d(f(m)) + (-1)^{n+1} f(dm) for f of
    degree n.  Adams degrees of the basis maps may be negative; they are
    renormalized through the twist offset.
    """
    if M.algebra is not N.algebra:
        raise ModuleError("Hom of modules over different algebras")
    A = M.algebra
    nM, nN = len(M.basis), len(N.basis)

    def pair(i, j):
        return i * nM + j

    raw = []
    for i, (nm_i, ci, ai) in enumerate(N.basis):
        for j, (nm_j, cj, aj) in enumerate(M.basis):
            raw.append((f"[{nm_j}->{nm_i}]", ci - cj, ai - aj))
    min_adams = min((a for (_, _, a) in raw), default=0)
    offset = -min_adams if min_adams < 0 else 0
    basis = [(nm, c, a + offset) for (nm, c, a) in raw]
    diff = {}

    def add(dst, src, val):
        if val:
            diff[(dst, src)] = el_add(diff.get((dst, src), {}), val)

    d_M = _entries_at(M.differential, 0)
    for i, (_, ci, _) in enumerate(N.basis):
        for j, (_, cj, _) in enumerate(M.basis):
            n_deg = ci - cj
            # post-compose with d_N
            for k, a in N._d_by_col.get(i, ()):
                add(pair(k, j), pair(i, j), a)
            # pre-compose with d_M
            for l, a in d_M.get(j, ()):
                deg_a = A.el_bidegree(a)[0]
                s = (-1) ** ((n_deg + 1 + n_deg * deg_a) % 2)
                add(pair(i, l), pair(i, j), el_scale(a, s))
    filtration = _strict_filtration(basis, diff)
    return CellModule(A, basis, diff, filtration,
                      N.twist - M.twist - offset, f"Hom({M.name},{N.name})")


def hom_group(M: CellModule, N: CellModule):
    """dim Hom in the homotopy category: H^0 of the Hom complex at true
    Adams weight 0."""
    H = hom_complex(M, N)
    r_stored = -H.twist
    if r_stored < 0:
        return 0
    return H.cohomology(0, r_stored)[0]


# ---- weight filtration -------------------------------------------------


def weight_truncate(M: CellModule, n: int):
    """(W_n M, gr^W_n M, W^{>n} M) splitting the basis by true Adams weight.

    An entry of d between two basis elements of the same weight has Adams
    weight 0, so on a module of the right bidegrees it is a scalar, and
    gr^W_n keeps d's entries as they are."""
    low, exact, high = [], [], []
    for i, (_, c, a) in enumerate(M.basis):
        true_a = a + M.twist
        if true_a <= n:
            low.append(i)
            if true_a == n:
                exact.append(i)
        else:
            high.append(i)

    def sub(idxs):
        pos = {b: k for k, b in enumerate(idxs)}
        basis = [M.basis[b] for b in idxs]
        diff = {(pos[i], pos[j]): a for (i, j), a in M.differential.items()
                if i in pos and j in pos}
        filtration = [
            [pos[b] for b in s if b in pos] for s in M.filtration
        ]
        filtration = [s for s in filtration if s]
        return CellModule(M.algebra, basis, diff, filtration, M.twist)

    return sub(low), sub(exact), sub(high)


def is_finite_tate(M: CellModule):
    """{n: {degree: dim}}: the q-cohomology of gr^W_n M for each true
    weight n of M's basis.  A finite cell module is finite Tate: each
    gr^W_n has finite cohomology and only the listed n can be nonzero."""
    report = {}
    for n in sorted({a + M.twist for (_, _, a) in M.basis}):
        dims = weight_truncate(M, n)[1].q_complex().cohomology_dims()
        report[n] = {c: dim for (c, _), dim in dims.items()}
    return report


# ---- t-structure -------------------------------------------------------


def _induced(entries, kept, other, what):
    """{(k, j): Element}, the map a matrix of algebra elements {(i, j):
    Element} induces on span(kept) modulo span(other): column j is entries
    applied to kept[j], each monomial's coefficients written on kept by
    the projector of cocycle_classes(kept, other).  A vector outside
    span(kept + other) raises ModuleError naming what."""
    by_col = _entries_at(entries, 1)
    projector = linalg.cocycle_classes(kept, other)[2]
    out = {}
    for j, v in enumerate(kept):
        col = {}
        for i, c in v.items():
            for k, a in by_col.get(i, ()):
                col[k] = el_add(col.get(k, {}), a, c)
        by_mono = {}
        for k, a in col.items():
            for mono, c in a.items():
                by_mono.setdefault(mono, {})[k] = c
        for mono, vec in by_mono.items():
            coords = projector.class_coords(vec)
            if coords is None:
                raise ModuleError(f"{what}, monomial {mono}")
            for k, c in coords.items():
                out[(k, j)] = el_add(out.get((k, j), {}), {mono: ONE}, c)
    return out


def t_truncate(M: CellModule, n: int):
    """(tau_{<=n} M, tau^{>n} M, H^n connection), each the map d or Gamma
    induces on a span modulo another.  In degree n, weight by weight, q(M)
    gives the kernel of d0, a complement, the cohomology representatives
    and the image of d0.  tau_{<=n} is d on the units of degree < n and
    the kernel, modulo nothing; tau^{>n} is d on the units of degree > n
    and the complement, modulo the units of degree < n and the kernel;
    H^n(Gamma) is Gamma's degree-n rows on the representatives, modulo
    the image."""
    q = M.q_complex()
    below = [(b, {i: ONE}) for i, b in enumerate(M.basis) if b[1] < n]
    above = [(b, {i: ONE}) for i, b in enumerate(M.basis) if b[1] > n]
    ker, comp, reps, image = [], [], [], []
    for r in sorted({a for (_, c, a) in M.basis if c == n}):
        idxs = q.slice(n, r)

        def lifted(tag, vectors):
            return [((f"{tag}{n}w{r}_{t}", n, r),
                     {idxs[b]: c for b, c in v.items()})
                    for t, v in enumerate(vectors)]

        k = q.kernel(n, r)
        ker += lifted("k", k)
        comp += lifted("c", linalg.quotient_basis(
            k, [{b: ONE} for b in range(len(idxs))]))
        reps += lifted("h", q.cohomology(n, r)[1])
        image += lifted("", q.d_columns(n - 1, r))

    def induced(entries, kept, other, what):
        return ([b for b, _ in kept],
                _induced(entries, [v for _, v in kept],
                         [v for _, v in other], what))

    parts = []
    for sym, kept, other in (("<=", below + ker, []),
                             (">", above + comp, below + ker)):
        basis, diff = induced(M.differential, kept, other,
                              f"tau_<= not closed under d at degree {n}")
        parts.append(CellModule(M.algebra, basis, diff,
                                _strict_filtration(basis, diff), M.twist,
                                f"tau{sym}{n}{M.name}"))
    gamma = {(k, i): g for (k, i), g in to_connection(M).gamma.items()
             if M.basis[k][1] == n}
    basis, hn_gamma = induced(gamma, reps, image,
                              f"Gamma of an H^{n} class is not a d0-cocycle")
    return (*parts, ConnectionModule(M.algebra, basis, {}, hn_gamma, M.twist))


def in_heart(M: CellModule):
    """Heart membership: H^n(qM) = 0 for all n != 0."""
    return all(n == 0 for n, _ in M.q_complex().cohomology_dims())


# ---- cell resolutions --------------------------------------------------


class FiniteDgModule(ScalarComplex):
    """Finite-dimensional Adams-graded dg A-module given by matrices.

    basis: list of (name, coh, adams); d: {(i, j): Fraction} of bidegree
    (+1, 0); action: {gen_name: {(i, j): Fraction}} for each algebra
    generator, of the generator's bidegree.
    """

    def __init__(self, algebra, basis, d, action):
        super().__init__(basis, d)
        self.algebra = algebra
        self.action = {g: {k: F(v) for k, v in m.items() if v}
                       for g, m in action.items()}
        self._action_by_col = {g: _entries_at(m, 1)
                               for g, m in self.action.items()}

    def act(self, mono, vec_by_index):
        """Multiply a vector {index: coeff} by an algebra monomial, one
        generator at a time, each matrix read at the vector's support."""
        out = dict(vec_by_index)
        for g in reversed(mono_factors(mono)):
            by_col = self._action_by_col.get(g, {})
            nxt = {}
            for j, x in out.items():
                for i, c in by_col.get(j, ()):
                    if i in nxt:
                        nxt[i] += c * x
                    else:
                        nxt[i] = c * x
            out = {k: v for k, v in nxt.items() if v}
        return out


def cell_resolution(D: FiniteDgModule, coh_min, coh_max, adams_max):
    """Cell module P with a quasi-isomorphism phi: P -> D, built by
    linalg.attach_cells degree by degree, and weight by weight within a
    degree, from cohomology representatives; returns (P, phi, the
    attach_cells certificate of each slice in the window).  P grows in
    place (CellModule.attach), so a round recomputes only the slices its
    cells join."""
    P = CellModule(D.algebra, [], {}, [], 0, "P")
    phi = []   # image vectors {D-index: coeff} per P basis element
    acts = {}  # key (mono, j) of P -> D.act(mono, phi[j]), fixed once read

    def image(n, r, v):
        """phi of a vector of P's slice (n, r), over the positions of
        D.slice(n, r)."""
        src = P.slice(n, r)
        pos = D.index(n, r)
        img = {}
        for j, c in v.items():
            key = src[j]
            if key not in acts:
                acts[key] = D.act(key[0], phi[key[1]])
            for i, cc in acts[key].items():
                if pos[i] in img:
                    img[pos[i]] += c * cc
                else:
                    img[pos[i]] = c * cc
        return {k: c for k, c in img.items() if c}

    def adjoin(n, r, cells):
        """A generator p of bidegree (n, r) per cell (z, b): d p = z in P's
        slice (n + 1, r), phi(p) = b over D's positions."""
        idxs = D.slice(n, r)
        src = P.slice(n + 1, r)
        for z, b in cells:
            phi.append({idxs[k]: c for k, c in b.items()})
            column = {}
            for j, c in (z or {}).items():
                mono, bi = src[j]
                column.setdefault(bi, {})[mono] = c
            P.attach(f"p{len(P.basis)}", n, r, column)

    stages = [(n, r) for n in range(coh_min, coh_max + 1)
              for r in range(adams_max + 1)]
    _, certificate = linalg.attach_cells(
        stages, coh_max, D, lambda n, r: P.cohomology(n, r)[1], image,
        adjoin)
    return P, phi, certificate
