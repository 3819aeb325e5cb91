"""Finite cell modules over a cdga, connections, and the t-structure.

A cell module is free as a bigraded module on a finite filtered basis;
the differential is a matrix of algebra elements, strictly triangular
with respect to the filtration.  Tate twists are tracked as a global
integer offset so that stored Adams degrees stay within the engine's
windows: true adams = stored adams + twist.

Splitting each entry into its scalar part and its positive-weight part
gives the equivalent connection presentation (M_0, d0) with Gamma valued
in A+; flatness of Gamma is exactly the positive-weight part of d^2 = 0.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .cdga import CdgaPresentation, UNIT, el_add, el_scale

F = Fraction


class ModuleError(Exception):
    pass


class CellModule:
    def __init__(self, algebra: CdgaPresentation, basis, differential,
                 filtration=None, twist=0, name="M"):
        """basis: list of (name, coh, adams); differential: {(i, j): Element}
        meaning d b_j = sum_i a_ij b_i; filtration: list of index lists."""
        self.algebra = algebra
        self.basis = list(basis)
        self.differential = {k: v for k, v in differential.items() if v}
        self.twist = twist
        self.name = name
        if filtration is None:
            filtration = [[i] for i in range(len(basis))]
        self.filtration = [list(s) for s in filtration]
        self._slice_cache = {}

    def bidegree(self, i):
        _, c, a = self.basis[i]
        return (c, a)

    def stage(self, i):
        for s, idxs in enumerate(self.filtration):
            if i in idxs:
                return s
        raise ModuleError(f"basis index {i} missing from filtration")

    def check(self):
        """d bidegree (+1, 0), filtration strictness, and d^2 = 0."""
        failures = []
        A = self.algebra
        for (i, j), a in self.differential.items():
            bd = A.el_bidegree(a)
            ci, ri = self.bidegree(i)
            cj, rj = self.bidegree(j)
            if bd != (cj + 1 - ci, rj - ri):
                failures.append(f"entry ({i},{j}) bidegree {bd}")
            if bd and bd[1] < 0:
                failures.append(f"entry ({i},{j}) lowers Adams weight")
            if self.stage(i) >= self.stage(j):
                failures.append(f"entry ({i},{j}) breaks filtration strictness")
        failures.extend(self._d_squared_failures(self.differential))
        return (not failures), failures

    def _d_squared_failures(self, entries, label="d^2"):
        A = self.algebra
        n = len(self.basis)
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

    # ---- slice complexes over Q ---------------------------------------

    def slice_basis(self, n, r):
        """Basis (algebra monomial, basis index) of the (n, r) slice,
        in STORED Adams degrees."""
        key = (n, r)
        if key not in self._slice_cache:
            out = []
            for j, (_, cj, rj) in enumerate(self.basis):
                ra = r - rj
                if ra < 0:
                    continue
                for mono in self.algebra.basis_slice(n - cj, ra):
                    out.append((mono, j))
            self._slice_cache[key] = sorted(
                out, key=lambda p: (p[1], p[0]))
        return self._slice_cache[key]

    def d_element(self, mono, j):
        """d(mono * b_j) as {(monomial, index): coeff}."""
        A = self.algebra
        out = {}
        for dm, c in A.apply_d({mono: F(1)}).items():
            out[(dm, j)] = out.get((dm, j), F(0)) + c
        sign = (-1) ** A.mono_bidegree(mono)[0]
        for (i, jj), a in self.differential.items():
            if jj != j:
                continue
            prod = A.multiply({mono: F(1)}, a)
            for pm, c in prod.items():
                key = (pm, i)
                out[key] = out.get(key, F(0)) + sign * c
        return {k: c for k, c in out.items() if c}

    def d_matrix(self, n, r):
        src = self.slice_basis(n, r)
        dst = self.slice_basis(n + 1, r)
        idx = {p: i for i, p in enumerate(dst)}
        mat = linalg.SparseMatrix(len(dst), len(src))
        for j, (mono, bi) in enumerate(src):
            for key, c in self.d_element(mono, bi).items():
                mat.entries[(idx[key], j)] = c
        return mat

    def cohomology_slice(self, n, r):
        """H of the full module slice complex (stored degrees)."""
        dim, reps = linalg.cohomology(self.d_matrix(n, r), self.d_matrix(n - 1, r))
        return dim, reps

    # ---- q functor -----------------------------------------------------

    def q_complex(self):
        """(basis, scalar differential entries): M tensored down to Q."""
        d0 = {}
        for (i, j), a in self.differential.items():
            c = a.get(UNIT)
            if c:
                d0[(i, j)] = c
        return QComplex(self.basis, d0, self.twist)


class QComplex:
    """Finite complex of bigraded rational spaces."""

    def __init__(self, basis, entries, twist=0):
        self.basis = list(basis)
        self.entries = {k: F(v) for k, v in entries.items() if v}
        self.twist = twist

    def indices(self, n, r):
        return [i for i, (_, c, a) in enumerate(self.basis) if c == n and a == r]

    def d_matrix(self, n, r):
        src = self.indices(n, r)
        dst = self.indices(n + 1, r)
        pos = {b: k for k, b in enumerate(dst)}
        mat = linalg.SparseMatrix(len(dst), len(src))
        for j, b in enumerate(src):
            for (i, jj), c in self.entries.items():
                if jj == b and i in pos:
                    mat.entries[(pos[i], j)] = c
        return mat

    def cohomology_dim(self, n, r):
        dim, _ = linalg.cohomology(self.d_matrix(n, r), self.d_matrix(n - 1, r))
        return dim

    def weights(self):
        return sorted({a for (_, _, a) in self.basis})

    def degrees(self):
        return sorted({c for (_, c, _) in self.basis})


class ConnectionModule:
    """(M_0, d0) with an A+-valued connection Gamma, as basis matrices."""

    def __init__(self, algebra, basis, d0, gamma, twist=0):
        self.algebra = algebra
        self.basis = list(basis)
        self.d0 = {k: F(v) for k, v in d0.items() if v}
        self.gamma = {k: v for k, v in gamma.items() if v}
        self.twist = twist

    def check_flat(self):
        """dGamma + Gamma^2 (+ the d0 cross terms) = 0, entrywise.

        This is the positive-weight part of d^2 = 0 for d = d0 + Gamma.
        """
        A = self.algebra
        n = len(self.basis)
        failures = []
        for j in range(n):
            for k in range(n):
                acc = A.apply_d(self.gamma.get((k, j), {}))
                for i in range(n):
                    g_ij = self.gamma.get((i, j))
                    if g_ij:
                        deg = A.el_bidegree(g_ij)[0]
                        g_ki = self.gamma.get((k, i))
                        if g_ki:
                            acc = el_add(acc, A.multiply(g_ij, g_ki),
                                         F((-1) ** deg))
                        c = self.d0.get((k, i))
                        if c:
                            acc = el_add(acc, g_ij, F((-1) ** deg) * c)
                    c0 = self.d0.get((i, j))
                    if c0:
                        g_ki = self.gamma.get((k, i))
                        if g_ki:
                            acc = el_add(acc, g_ki, c0)
                if acc:
                    failures.append((k, j))
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


def from_connection(C: ConnectionModule, filtration=None, name="M") -> CellModule:
    diff = {}
    for (i, j), c in C.d0.items():
        diff[(i, j)] = el_add(diff.get((i, j), {}), {UNIT: F(1)}, c)
    for (i, j), g in C.gamma.items():
        diff[(i, j)] = el_add(diff.get((i, j), {}), g)
    if filtration is None:
        # order stages by Adams weight then degree: strictness holds for
        # any valid connection since Gamma raises weight and d0 is
        # intra-weight... d0 connects same-weight elements, so group by
        # weight and let scalar entries order inside via a topological sort
        filtration = _strict_filtration(C.basis, diff)
    return CellModule(C.algebra, C.basis, diff, filtration, C.twist, name)


def _strict_filtration(basis, diff):
    n = len(basis)
    deps = {j: {i for (i, jj) in diff if jj == j} for j in range(n)}
    stages = []
    placed = set()
    remaining = set(range(n))
    while remaining:
        stage = sorted(j for j in remaining if deps[j] <= placed)
        if not stage:
            raise ModuleError("differential admits no strict filtration")
        stages.append(stage)
        placed |= set(stage)
        remaining -= set(stage)
    return stages


# ---- constructions -----------------------------------------------------


def tate(A: CdgaPresentation, n: int) -> CellModule:
    """A<n>: rank one, generator of true Adams degree -n."""
    return CellModule(A, [(f"b{n}", 0, 0)], {}, twist=-n, name=f"A<{n}>")


def shift(M: CellModule, k: int = 1) -> CellModule:
    """M[k]: cohomological degrees drop by k, differential times (-1)^k."""
    basis = [(nm, c - k, a) for (nm, c, a) in M.basis]
    diff = {key: el_scale(a, (-1) ** k) for key, a in M.differential.items()}
    return CellModule(M.algebra, basis, diff, M.filtration, M.twist,
                      f"{M.name}[{k}]")


class CellMorphism:
    """Degree-(0,0) chain map f: M -> N, entries f(b^M_j) = sum f_ij b^N_i."""

    def __init__(self, M: CellModule, N: CellModule, entries):
        if M.algebra is not N.algebra:
            raise ModuleError("morphism between modules over different algebras")
        if M.twist != N.twist:
            raise ModuleError("morphism between modules of different twist")
        self.M = M
        self.N = N
        self.entries = {k: v for k, v in entries.items() if v}

    def check_chain_map(self):
        A = self.M.algebra
        failures = []
        for j in range(len(self.M.basis)):
            for k in range(len(self.N.basis)):
                # d_N(f(b_j)) - f(d_M b_j), component on b^N_k
                acc = A.apply_d(self.entries.get((k, j), {}))
                for i in range(len(self.N.basis)):
                    f_ij = self.entries.get((i, j))
                    a_ki = self.N.differential.get((k, i))
                    if f_ij and a_ki:
                        deg = A.el_bidegree(f_ij)[0]
                        acc = el_add(acc, A.multiply(f_ij, a_ki), F((-1) ** deg))
                for i in range(len(self.M.basis)):
                    a_ij = self.M.differential.get((i, j))
                    f_ki = self.entries.get((k, i))
                    if a_ij and f_ki:
                        deg = A.el_bidegree(a_ij)[0]
                        acc = el_add(acc, A.multiply(a_ij, f_ki),
                                     F(-((-1) ** deg)))
                if acc:
                    failures.append((k, j))
        return (not failures), failures


def cone(f: CellMorphism) -> CellModule:
    """Cone(f)^n = N^n + M^{n+1}; d(n, m) = (dn + f(m), -dm)."""
    ok, wit = f.check_chain_map()
    if not ok:
        raise ModuleError(f"not a chain map, witnesses {wit}")
    M, N = f.M, f.N
    nN = len(N.basis)
    basis = list(N.basis) + [(f"c_{nm}", c - 1, a) for (nm, c, a) in M.basis]
    diff = {}
    for (i, j), a in N.differential.items():
        diff[(i, j)] = a
    for (i, j), a in f.entries.items():
        diff[(i, nN + j)] = a
    for (i, j), a in M.differential.items():
        diff[(nN + i, nN + j)] = el_scale(a, -1)
    filtration = [list(s) for s in N.filtration] + [
        [nN + i for i in s] for s in M.filtration
    ]
    return CellModule(N.algebra, basis, diff, filtration, N.twist,
                      f"Cone({M.name}->{N.name})")


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
            s = (-1) ** (ci + deg_a * ci)
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

    for i, (_, ci, _) in enumerate(N.basis):
        for j, (_, cj, _) in enumerate(M.basis):
            n_deg = ci - cj
            # post-compose with d_N
            for (k, ii), a in N.differential.items():
                if ii == i:
                    add(pair(k, j), pair(i, j), a)
            # pre-compose with d_M
            for (jj, l), a in M.differential.items():
                if jj == j:
                    deg_a = A.el_bidegree(a)[0]
                    s = (-1) ** ((n_deg + 1) + n_deg * deg_a)
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
    dim, _ = H.cohomology_slice(0, r_stored)
    return dim


# ---- weight filtration -------------------------------------------------


def weight_truncate(M: CellModule, n: int):
    """(W_n M, gr^W_n M, W^{>n} M) splitting the basis by true Adams weight."""
    low, exact, high = [], [], []
    for i, (_, c, a) in enumerate(M.basis):
        true_a = a + M.twist
        if true_a <= n:
            low.append(i)
            if true_a == n:
                exact.append(i)
        else:
            high.append(i)

    def sub(idxs, keep_scalar_only=False):
        pos = {b: k for k, b in enumerate(idxs)}
        basis = [M.basis[b] for b in idxs]
        diff = {}
        for (i, j), a in M.differential.items():
            if i in pos and j in pos:
                if keep_scalar_only:
                    c = a.get(UNIT)
                    if c:
                        diff[(pos[i], pos[j])] = {UNIT: c}
                else:
                    diff[(pos[i], pos[j])] = a
        filtration = [
            [pos[b] for b in s if b in pos] for s in M.filtration
        ]
        filtration = [s for s in filtration if s]
        return CellModule(M.algebra, basis, diff, filtration, M.twist)

    return sub(low), sub(exact, keep_scalar_only=True), sub(high)


def is_finite_tate(M: CellModule, coh_max=5):
    """gr^W_n cohomology finite and vanishing outside finitely many n."""
    weights = sorted({a + M.twist for (_, _, a) in M.basis})
    report = {}
    for n in weights:
        _, gr, _ = weight_truncate(M, n)
        q = gr.q_complex()
        dims = {}
        for c in range(-coh_max, coh_max + 1):
            d = q.cohomology_dim(c, n - M.twist)
            if d:
                dims[c] = d
        report[n] = dims
    return True, report


# ---- t-structure -------------------------------------------------------


def _scalar_kernel_split(M: CellModule, n: int):
    """Per stored Adams weight r: kernel of d0 on the (n, r) part of M_0,
    plus complement representatives, as vectors over the degree-n basis
    indices."""
    q = M.q_complex()
    out = {}
    weights = sorted({a for (_, c, a) in M.basis if c == n})
    for r in weights:
        idxs = q.indices(n, r)
        pos = {b: k for k, b in enumerate(idxs)}
        mat = q.d_matrix(n, r)
        ker = linalg.kernel_basis(mat)
        comp = linalg.quotient_basis(ker, [{k: F(1)} for k in range(len(idxs))])
        out[r] = (idxs, ker, comp)
    return out


def t_truncate(M: CellModule, n: int):
    """(tau_{<=n} M, tau^{>n} M, H^n connection).

    Uses the connection split: degrees < n are kept whole, in degree n the
    kernel of d0 is kept (a scalar change of basis); the quotient gets the
    complement plus degrees > n; H^n(Gamma) is the induced connection on
    the d0-cohomology of the degree-n slice.
    """
    A = M.algebra
    split = _scalar_kernel_split(M, n)

    def build_part(keep_low):
        """keep_low: the sub tau_{<=n}; otherwise the quotient tau^{>n}.

        Returns (new_basis, kept vectors, projector onto kept
        coordinates).  The sub is spanned by its kept vectors alone, so a
        column outside their span means d leaves the sub; the quotient
        projects along the complementary vectors (degrees < n and the
        degree-n kernel of d0), which with the kept ones form a basis."""
        new_basis = []
        kept = []  # each: {orig_index: coeff}
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
        return new_basis, kept, linalg.ClassProjector(kept, other,
                                                      len(M.basis))

    def express(el_by_index, proj):
        """Rewrite a column {orig_index: Element} in kept coordinates."""
        out = {}
        by_mono = {}
        for i, el in el_by_index.items():
            for mono, c in el.items():
                by_mono.setdefault(mono, {})[i] = c
        for mono, vec in by_mono.items():
            sol = proj.class_coords(vec, strict=False)
            if sol is None:
                raise ModuleError(
                    f"tau_<= not closed under d at degree {n}, monomial {mono}")
            for k, c in sol.items():
                out.setdefault(k, {})
                out[k] = el_add(out[k], {mono: F(1)}, c)
        return out

    results = []
    for keep_low in (True, False):
        new_basis, kept, proj = build_part(keep_low)
        diff = {}
        for j, vj in enumerate(kept):
            # d of the j-th new basis vector, as {orig_index: Element}
            col = {}
            for i, c in vj.items():
                for (k, ii), a in M.differential.items():
                    if ii == i:
                        col[k] = el_add(col.get(k, {}), a, c)
            col = {k: v for k, v in col.items() if v}
            out = express(col, proj)
            for k, a in out.items():
                if a:
                    diff[(k, j)] = a
        filtration = _strict_filtration(new_basis, diff)
        results.append(CellModule(A, new_basis, diff, filtration, M.twist,
                                  f"tau{'<=' if keep_low else '>'}{n}{M.name}"))

    # H^n as a connection on d0-cohomology classes of the degree-n slice
    q = M.q_complex()
    hn_basis = []
    hn_vectors = []
    projectors = {}
    for r in sorted({a for (_, c, a) in M.basis if c == n}):
        idxs = q.indices(n, r)
        mat_out = q.d_matrix(n, r)
        mat_in = q.d_matrix(n - 1, r)
        dim, reps = linalg.cohomology(mat_out, mat_in)
        proj = linalg.ClassProjector(reps, linalg.image_basis(mat_in), len(idxs))
        projectors[r] = (idxs, proj, len(hn_basis))
        for t, v in enumerate(reps):
            hn_basis.append((f"h{n}w{r}_{t}", n, r))
            hn_vectors.append({idxs[b]: c for b, c in v.items()})
    gamma = {}
    conn = to_connection(M)
    for j, vj in enumerate(hn_vectors):
        col = {}
        for i, c in vj.items():
            for (k, ii), g in conn.gamma.items():
                if ii == i:
                    col[k] = el_add(col.get(k, {}), g, c)
        # project the degree-n components to classes, weight by weight
        by_mono = {}
        for k, el in col.items():
            _, ck, rk = M.basis[k]
            if ck != n:
                continue
            for mono, c in el.items():
                by_mono.setdefault((rk, mono), {})[k] = c
        for (rk, mono), vec in by_mono.items():
            idxs, proj, base = projectors[rk]
            pos = {b: t for t, b in enumerate(idxs)}
            cls = proj.class_coords({pos[k]: c for k, c in vec.items()})
            for t, c in cls.items():
                key = (base + t, j)
                gamma[key] = el_add(gamma.get(key, {}), {mono: F(1)}, c)
    hn_conn = ConnectionModule(A, hn_basis, {}, gamma, M.twist)
    return results[0], results[1], hn_conn


def in_heart(M: CellModule, coh_max=5, adams_max=6):
    """Heart membership: H^n(qM) = 0 for all n != 0."""
    q = M.q_complex()
    for n in range(-coh_max, coh_max + 1):
        if n == 0:
            continue
        for r in sorted({a for (_, _, a) in M.basis}):
            if q.cohomology_dim(n, r):
                return False
    return True


# ---- cell resolutions --------------------------------------------------


class FiniteDgModule:
    """Finite-dimensional Adams-graded dg A-module given by matrices.

    basis: list of (name, coh, adams); d: {(i, j): Fraction} of bidegree
    (+1, 0); action: {gen_name: {(i, j): Fraction}} for each algebra
    generator, of the generator's bidegree.
    """

    def __init__(self, algebra, basis, d, action):
        self.algebra = algebra
        self.basis = list(basis)
        self.d = {k: F(v) for k, v in d.items() if v}
        self.action = {g: {k: F(v) for k, v in m.items() if v}
                       for g, m in action.items()}

    def indices(self, n, r):
        return [i for i, (_, c, a) in enumerate(self.basis) if c == n and a == r]

    def d_matrix(self, n, r):
        src = self.indices(n, r)
        dst = self.indices(n + 1, r)
        pos = {b: k for k, b in enumerate(dst)}
        mat = linalg.SparseMatrix(len(dst), len(src))
        for j, b in enumerate(src):
            for (i, jj), c in self.d.items():
                if jj == b and i in pos:
                    mat.entries[(pos[i], j)] = c
        return mat

    def cohomology(self, n, r):
        dim, reps = linalg.cohomology(self.d_matrix(n, r), self.d_matrix(n - 1, r))
        proj = linalg.ClassProjector(
            reps, linalg.image_basis(self.d_matrix(n - 1, r)),
            len(self.indices(n, r)))
        return dim, reps, proj

    def act(self, mono, vec_by_index):
        """Multiply a vector {index: coeff} by an algebra monomial."""
        out = dict(vec_by_index)
        flat = []
        for g, e in mono:
            flat.extend([g] * e)
        for g in reversed(flat):
            mat = self.action.get(g, {})
            nxt = {}
            for (i, j), c in mat.items():
                x = out.get(j)
                if x:
                    nxt[i] = nxt.get(i, F(0)) + c * x
            out = {k: v for k, v in nxt.items() if v}
        return out


def cell_resolution(D: FiniteDgModule, coh_min, coh_max, adams_max):
    """Cell module P with a quasi-isomorphism P -> D, built degree by
    degree from cohomology representatives, with a per-slice rank
    certificate within the window."""
    A = D.algebra
    basis = []      # (name, coh, adams)
    diff = {}
    phi = []        # image vectors {D-index: coeff} per P basis element
    counter = [0]

    def P_module():
        return CellModule(A, basis, diff, _strict_filtration(basis, diff),
                          0, "P")

    for n in range(coh_min, coh_max + 1):
        for r in range(0, adams_max + 1):
            changed = True
            guard = 0
            while changed and guard < 6:
                guard += 1
                changed = False
                P = P_module()
                # surjectivity on H^n(r)
                dimD, repsD, projD = D.cohomology(n, r)
                dimP, repsP = P.cohomology_slice(n, r)
                cols = []
                srcP = P.slice_basis(n, r)
                for rv in repsP:
                    img = {}
                    for j, c in rv.items():
                        mono, bi = srcP[j]
                        for i, cc in D.act(mono, phi[bi]).items():
                            img[i] = img.get(i, F(0)) + c * cc
                    pos = {b: k for k, b in enumerate(D.indices(n, r))}
                    cls = projD.class_coords(
                        {pos[i]: c for i, c in img.items() if c})
                    cols.append(cls)
                span = linalg.echelon_basis(cols)
                missing = linalg.quotient_basis(
                    span, [{k: F(1)} for k in range(dimD)])
                for cv in missing:
                    vec = {}
                    pos_list = D.indices(n, r)
                    for k, c in cv.items():
                        for b, cc in repsD[k].items():
                            vec[pos_list[b]] = vec.get(pos_list[b], F(0)) + c * cc
                    name = f"p{counter[0]}"
                    counter[0] += 1
                    basis.append((name, n, r))
                    phi.append({k: v for k, v in vec.items() if v})
                    changed = True
                if changed:
                    continue
                # kill the kernel on H^{n+1}(r) with degree-n generators
                P = P_module()
                dimP2, repsP2 = P.cohomology_slice(n + 1, r)
                dimD2, repsD2, projD2 = D.cohomology(n + 1, r)
                src2 = P.slice_basis(n + 1, r)
                cols2 = []
                for rv in repsP2:
                    img = {}
                    for j, c in rv.items():
                        mono, bi = src2[j]
                        for i, cc in D.act(mono, phi[bi]).items():
                            img[i] = img.get(i, F(0)) + c * cc
                    pos = {b: k for k, b in enumerate(D.indices(n + 1, r))}
                    cols2.append(projD2.class_coords(
                        {pos[i]: c for i, c in img.items() if c}))
                phi_mat = linalg.SparseMatrix.from_columns(cols2, dimD2)
                for kv in linalg.kernel_basis(phi_mat):
                    # cocycle z in P with [phi(z)] = 0; adjoin g, dg = z,
                    # phi(g) = b where d_D b = phi(z)
                    zvec = {}
                    for k, c in kv.items():
                        for j, cc in repsP2[k].items():
                            zvec[j] = zvec.get(j, F(0)) + c * cc
                    z_entries = {}
                    img = {}
                    for j, c in zvec.items():
                        if not c:
                            continue
                        mono, bi = src2[j]
                        z_entries[bi] = el_add(
                            z_entries.get(bi, {}), {mono: F(1)}, c)
                        for i, cc in D.act(mono, phi[bi]).items():
                            img[i] = img.get(i, F(0)) + c * cc
                    img = {i: c for i, c in img.items() if c}
                    pos_src = {b: k for k, b in enumerate(D.indices(n, r))}
                    pos_dst = {b: k for k, b in enumerate(D.indices(n + 1, r))}
                    bsol = linalg.solve(
                        D.d_matrix(n, r),
                        {pos_dst[i]: c for i, c in img.items()})
                    if bsol is None:
                        raise ModuleError(
                            "image of kernel class not exact in target")
                    name = f"p{counter[0]}"
                    counter[0] += 1
                    new_idx = len(basis)
                    basis.append((name, n, r))
                    inv_src = D.indices(n, r)
                    phi.append({inv_src[k]: c for k, c in bsol.items() if c})
                    for bi, el in z_entries.items():
                        diff[(bi, new_idx)] = el
                    changed = True

    P = P_module()
    certificate = {}
    for n in range(coh_min, coh_max + 2):
        for r in range(0, adams_max + 1):
            dimD, repsD, projD = D.cohomology(n, r)
            dimP, repsP = P.cohomology_slice(n, r)
            srcP = P.slice_basis(n, r)
            cols = []
            for rv in repsP:
                img = {}
                for j, c in rv.items():
                    mono, bi = srcP[j]
                    for i, cc in D.act(mono, phi[bi]).items():
                        img[i] = img.get(i, F(0)) + c * cc
                pos = {b: k for k, b in enumerate(D.indices(n, r))}
                cols.append(projD.class_coords(
                    {pos[i]: c for i, c in img.items() if c}, strict=False))
            if any(c is None for c in cols):
                certificate[(n, r)] = False
                continue
            rk = len(linalg.echelon_basis(cols))
            if n <= coh_max:
                certificate[(n, r)] = dimD == dimP == rk
            else:
                certificate[(n, r)] = dimP == rk
    return P, phi, certificate
