"""Augmented cdgas over a base and their relative bar constructions.

An augmented algebra over a base N is a total algebra A that contains
N's generators verbatim together with an augmentation killing the
remaining ("fiber") generators.  The fiber algebra Sym*E = A (x)_N Q
carries the reduced differential d0; the base-valued remainder of d is
a flat nilpotent connection Gamma.  This module computes:

  * H^0 of the bar construction of the fiber with the induced connection
    on its weight pieces, on the relative bar complex N (x) Bbar(F), a
    SliceComplex whose D is read off d_A; D^2 = 0 exactly when the total
    is a cdga, so the verdicts read cdga.structure_failures of the total,
  * the semi-direct product data (kernel Hopf algebra, p*/s* maps, the
    polynomial-extension dimension identity),
  * the base's co-action on the degree-1 kernel generators: Gamma
    restricted to E^1,
  * finite simplicial-approximation complexes of the bar construction
    indexed by faces of a standard simplex, and
  * the punctured-line fundamental-group demo over a mock trivial base.
"""

from fractions import Fraction
from itertools import combinations

from . import linalg
from .linalg import _vec_iadd
from .cdga import (
    UNIT,
    CdgaPresentation,
    GeneratorSpec,
    augmentation_failures,
    base_mismatches,
    structure_failures,
)
from .bar import (
    BarComplex,
    CoLiePresentation,
    HopfPresentation,
    _wadd,
    h0_hopf,
    map_letters,
    require_connected,
)
from .minimal import generalized_nilpotent_check

F = Fraction


class RelativeError(Exception):
    pass


class AugmentedOverN:
    """Total algebra A with a distinguished base subalgebra N.

    Base generators must appear in the total algebra verbatim and are
    fixed by the augmentation; every fiber generator must augment to
    zero (the supported normal form — a nonzero N-valued augmentation
    can always be removed by the change of variables e -> e - eps(e)).
    eps must be a chain map: eps(d g) = 0 for each fiber generator g
    (cdga.augmentation_failures).
    """

    def __init__(self, base: CdgaPresentation, total: CdgaPresentation):
        self.base = base
        self.total = total
        self.base_names = {g.name for g in base.generators}
        failures = base_mismatches(base, total)
        if failures:
            raise RelativeError("; ".join(failures))
        self.fiber = [
            g for g in total.generators if g.name not in self.base_names
        ]
        for g in self.fiber:
            if total.augmentation.get(g.name, {}):
                raise RelativeError(
                    f"fiber generator {g.name} has a nonzero augmentation; "
                    "reduce to the zero-augmentation normal form first"
                )
        failures = augmentation_failures(
            total, {g.name: {} for g in self.fiber})
        if failures:
            raise RelativeError("; ".join(failures))

    def eps(self, el):
        """The augmentation A -> N (kills fiber generators)."""
        out = {}
        for mono, c in el.items():
            if all(name in self.base_names for name, _ in mono):
                _vec_iadd(out, {mono: F(1)}, c)
        return out


def split_monomial(A: CdgaPresentation, mono, base_names):
    """Split a monomial into (base part, fiber part, Koszul sign).

    The sign reorders the stored factor sequence into base factors
    followed by fiber factors.
    """
    sign = 1
    fiber_deg = 0
    base = {}
    fib = {}
    for name, e in mono:
        deg = A.gen[name].coh
        if name in base_names:
            sign *= (-1) ** (deg * e * fiber_deg % 2)
            base[name] = base.get(name, 0) + e
        else:
            fiber_deg += deg * e
            fib[name] = fib.get(name, 0) + e
    bmono = tuple(sorted(base.items()))
    fmono = tuple(sorted(fib.items()))
    return bmono, fmono, sign


def fiber_algebra(X: AugmentedOverN):
    """(Sym*E with the reduced differential d0, connection Gamma).

    Gamma maps each fiber generator to a dict {base monomial: fiber
    Element}; the base monomial is always nontrivial.
    """
    A = X.total
    gens = list(X.fiber)
    d0 = {}
    conn = {}
    for g in gens:
        dval = A.differential.get(g.name)
        if not dval:
            continue
        pure = {}
        mixed = {}
        for mono, c in dval.items():
            b, f, sgn = split_monomial(A, mono, X.base_names)
            if b == UNIT:
                _wadd(pure, f, c * sgn)
            else:
                mixed.setdefault(b, {})
                _wadd(mixed[b], f, c * sgn)
        if pure:
            d0[g.name] = pure
        if mixed:
            conn[g.name] = mixed
    products = {}
    if A.kind == "table":
        fiber_names = {g.name for g in gens}
        for (a, b), val in A.products.items():
            if a in fiber_names and b in fiber_names:
                for mono in val:
                    if any(n in X.base_names for n, _ in mono):
                        raise RelativeError(
                            f"table product {a}*{b} mixes base factors"
                        )
                products[(a, b)] = val
    Falg = CdgaPresentation(
        f"{A.name}_fiber", A.kind, gens, d0, products,
        {g.name: {} for g in gens},
    )
    return Falg, conn


class RelativeBarH0(linalg.SliceComplex):
    """H^0 of the fiber bar construction with its induced connection.

    As a SliceComplex it is the relative bar complex N (x) Bbar(F): the
    keys of slice (n, w) are the sorted pairs (b, word) of a base monomial
    and a fiber bar word of total degree n and weight w, and

        D(b (x) word) = d_N b (x) word + (-1)^|b| b . faces(word).
    """

    def __init__(self, X: AugmentedOverN, w_max, Falg, conn):
        super().__init__()
        self.X = X
        self.F, self.conn = Falg, conn
        self.hopf = HopfPresentation(Falg, w_max)
        self.bar = self.hopf.bar
        self._total_bar = BarComplex(X.total)
        self._faces = {}

    def faces(self, word):
        """The terms of d_Bbar + Gamma on a fiber word, as (b, word', c) for
        c times b (x) word': the faces of the word in the bar complex of the
        total algebra, whose d on a fiber monomial is d_F (b = 1) plus Gamma
        (b != 1).  The letter a face changes is split into base (x) fiber
        and b is pulled left across the suspended letters before it; a unit
        fiber part drops the letter."""
        if word not in self._faces:
            A = self.X.total
            out = self._faces[word] = []
            for i, _, nw, c in self._total_bar.faces(word):
                b, f, s = split_monomial(A, nw[i], self.X.base_names)
                if (A.mono_bidegree(b)[0] % 2
                        and self.bar.word_bidegree(nw[:i])[0] % 2):
                    s = -s
                fiber = (f,) if f != UNIT else ()
                out.append((b, nw[:i] + fiber + nw[i + 1:], s * c))
        return self._faces[word]

    def slice_keys(self, n, w):
        return sorted(
            (b, word) for wb in range(w + 1)
            for dn, words in self.bar.by_degree(w - wb).items()
            for b in self.X.base.slice(n - dn, wb)
            for word in words)

    def d_key(self, n, w, key):
        b, word = key
        A = self.X.total
        out = {(bm, word): c for bm, c in A.mono_d(b).items()}
        odd = A.mono_bidegree(b)[0] % 2
        for b2, nw, c in self.faces(word):
            for bm, bc in A.mono_mul(b, b2).items():
                _wadd(out, (bm, nw), -c * bc if odd else c * bc)
        return out


def checked_fiber(X: AugmentedOverN, w_max):
    """fiber_algebra(X) after the relative input checks, in order: the base
    is connected, the total generalized nilpotent over it, the fiber's table
    products valid and the fiber connected up to weight w_max."""
    require_connected(X.base, w_max)
    ok, wit = generalized_nilpotent_check(X.base, X.total)
    if not ok:
        raise RelativeError(
            f"total algebra not generalized nilpotent (cycle {wit}); "
            "compute a relative minimal model first"
        )
    Falg, conn = fiber_algebra(X)
    require_connected(Falg, w_max)
    return Falg, conn


def relative_bar_h0(X: AugmentedOverN, w_max):
    return RelativeBarH0(X, w_max, *checked_fiber(X, w_max))


class SemiDirectData:
    def __init__(self, weights, kernel_dims, base_dims, total_dims,
                 identity_ok, indecomp_ok, p_star, s_star,
                 sp_identity_ok, coaction, verdict):
        self.weights = weights
        self.kernel_dims = kernel_dims
        self.base_dims = base_dims
        self.total_dims = total_dims
        self.identity_ok = identity_ok
        self.indecomp_ok = indecomp_ok
        self.p_star = p_star
        self.s_star = s_star
        self.sp_identity_ok = sp_identity_ok
        self.coaction = coaction
        self.verdict = verdict


def semidirect(X: AugmentedOverN, w_max):
    rb = relative_bar_h0(X, w_max)
    weights = list(range(w_max + 1))
    kernel_dims = rb.hopf.dims()
    hopf_base = HopfPresentation(X.base, w_max)
    base_dims = hopf_base.dims()
    hopf_total = h0_hopf(X.total, w_max)
    total_dims = hopf_total.dims()
    identity_ok = all(
        total_dims[w]
        == sum(base_dims[w1] * kernel_dims[w - w1] for w1 in range(w + 1))
        for w in weights
    )
    # indecomposables of H^0(Bbar(A)) in weight w = the degree-1 slice of A
    gam_total = CoLiePresentation(hopf_total)
    gen1 = {}
    for g in X.total.generators:
        if g.coh == 1:
            gen1[g.adams] = gen1.get(g.adams, 0) + 1
    indecomp_ok = all(
        len(gam_total.by_weight.get(w, [])) == gen1.get(w, 0)
        for w in range(1, w_max + 1)
    )
    # p*: base classes into the total algebra; s*: augmentation back
    gam_base = CoLiePresentation(hopf_base)
    p_star = {}
    for gi, (w, j) in enumerate(gam_base.basis):
        lin = hopf_base.rep_lins(w)[j]
        p_star[gi] = gam_total.project(hopf_total.classify(lin, w), w)
    s_star = {}
    for gi, (w, j) in enumerate(gam_total.basis):
        # push the representative letter-wise through the augmentation
        elin = map_letters(hopf_total.rep_lins(w)[j],
                           lambda letter: X.eps({letter: F(1)}))
        s_star[gi] = gam_base.project(hopf_base.classify(elin, w), w)
    sp_identity_ok = True
    for gi in p_star:
        composed = {}
        for gj, c in p_star[gi].items():
            for gk, c2 in s_star[gj].items():
                _wadd(composed, gk, c * c2)
        if composed != {gi: F(1)}:
            sp_identity_ok = False
    ok = identity_ok and indecomp_ok and sp_identity_ok
    verdict = "pass" if ok and not structure_failures(X.total) else "fail"
    return SemiDirectData(
        weights, kernel_dims, base_dims, total_dims, identity_ok,
        indecomp_ok, p_star, s_star, sp_identity_ok,
        coaction_matrix(X, rb.conn, w_max), verdict,
    )


def coaction_matrix(X: AugmentedOverN, conn, w_max):
    """Gamma on E^1, the base's co-action, off fiber_algebra's connection
    conn: {(g, t, u): Fraction c} for each term c t (x) u of Gamma(g), with
    g, t and u generators of degree 1 and g of weight <= w_max; the sign
    is split_monomial's, pulling t in front of u."""
    A = X.total
    out = {}
    for g in X.fiber:
        if g.coh != 1 or g.adams > w_max:
            continue
        for b, fel in conn.get(g.name, {}).items():
            for fm, c in fel.items():
                # d_A(g) has degree 2, so t has degree 1 where u does
                if len(b) == len(fm) == 1 and b[0][1] == fm[0][1] == 1 \
                        and A.gen[fm[0][0]].coh == 1:
                    out[(g.name, b[0][0], fm[0][0])] = F(c)
    return out


def coaction_check(X: AugmentedOverN, w_max):
    """(ok, coaction_matrix) after relative_bar_h0's input checks, with no
    bar construction: ok is that the total is a cdga (structure_failures)."""
    _, conn = checked_fiber(X, w_max)
    return not structure_failures(X.total), coaction_matrix(X, conn, w_max)


# ---------------------------------------------------------------------------
# finite simplicial approximations
# ---------------------------------------------------------------------------


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

    A face only removes vertices, so for nn <= n the pairs with
    S[-1] <= nn span a subcomplex (closed_ok checks it): the complex of
    the nn-simplex, whose H^0 dims filtered_h0 reads at level S[-1].  As a
    SliceComplex its keys are the pairs (S, word), sorted and grouped by
    degree once per weight, and every dimension and check reads the one
    d_columns of each slice.
    """

    def __init__(self, A: CdgaPresentation, n, w_max):
        super().__init__()
        self.A = A
        self.n = n
        self.w_max = w_max
        self.bar = BarComplex(A)
        self._words = {}
        self._faces = {}

    def letters(self, r):
        if r == 0:
            return [UNIT]
        return self.bar.letters(r)

    def words(self, w, m):
        key = (w, m)
        if key not in self._words:
            if m == 0:
                self._words[key] = [()] if w == 0 else []
            else:
                out = []
                for r in range(0, w + 1):
                    for letter in self.letters(r):
                        for tail in self.words(w - r, m - 1):
                            out.append((letter,) + tail)
                self._words[key] = out
        return self._words[key]

    def group_keys(self, w):
        """{deg: the pairs (S, word) of weight w and degree deg, sorted}:
        each word's degree is taken once."""
        groups = {}
        for m in range(0, self.n + 1):
            simplices = list(combinations(range(self.n + 1), m + 1))
            for word in self.words(w, m):
                group = groups.setdefault(self.bar.word_bidegree(word)[0], [])
                group.extend((S, word) for S in simplices)
        return {deg: sorted(g) for deg, g in groups.items()}

    def d_basis(self, S, word):
        """The bar faces of the word, a product of letters i and i + 1
        dropping vertex i + 1 of S, then the two counit end faces; the
        sign of the last is the degree of the word, as the unit letter
        has ebar -1.  The bar faces depend only on the word, so they are
        built once per word."""
        if word not in self._faces:
            self._faces[word] = self.bar.faces(word)
        out = {}
        for i, k, nw, c in self._faces[word]:
            _wadd(out, (S if k == 1 else S[:i + 1] + S[i + 2:], nw), c)
        if word and word[0] == UNIT:
            _wadd(out, (S[1:], word[1:]), 1)
        if word and word[-1] == UNIT:
            _wadd(out, (S[:-1], word[:-1]),
                  -1 if self.bar.word_bidegree(word)[0] % 2 else 1)
        return out

    def d_key(self, deg, w, b):
        return self.d_basis(*b)

    def closed_ok(self):
        """No face in d(deg, w), deg -2..1, has a top vertex above its
        column's: the pairs with S[-1] <= nn are subcomplexes.  A face map
        that leaves its vertex range breaks it."""
        for w in range(self.w_max + 1):
            for deg in (-2, -1, 0, 1):
                dst = self.slice(deg + 1, w)
                for (S, _), col in zip(self.slice(deg, w),
                                       self.d_columns(deg, w)):
                    if any(dst[i][0][-1] > S[-1] for i in col):
                        return False
        return True

    def q_map(self, lin):
        """Sum-of-identities comparison map to the length-truncated bar
        complex (words with unit letters die)."""
        out = {}
        for (S, word), c in lin.items():
            if all(l != UNIT for l in word):
                _wadd(out, word, c)
        return out

    def q_chain_ok(self):
        """q d = d_bar q on degrees -1 and 0, the right side from the bar
        complex's own differential on words of length <= n.  q of a basis
        element depends only on its word, so the right side is computed
        once per word, not once per face."""
        rhs = {}  # word -> d_bar q of every (S, word)
        for w in range(self.w_max + 1):
            for deg in (-1, 0):
                dst = self.slice(deg + 1, w)
                for b, col in zip(self.slice(deg, w), self.d_columns(deg, w)):
                    word = b[1]
                    if word not in rhs:
                        rhs[word] = {
                            nw: c for nw, c in
                            self.bar.d_lin(self.q_map({b: 1})).items()
                            if len(nw) <= self.n}
                    lhs = self.q_map({dst[i]: c for i, c in col.items()})
                    if lhs != rhs[word]:
                        return False
        return True


def delta_approximation(X: AugmentedOverN, n, w_max):
    """Simplicial approximations of the fiber bar complex for all
    simplex sizes up to n, read off the one complex at n as the levels
    S[-1] <= nn, with a stabilization report against the fiber bar
    complex's H^0 (a weight-w word has at most w letters, so its length
    truncation at w_max is the whole complex)."""
    Falg, _ = fiber_algebra(X)
    da = DeltaApprox(Falg, n, w_max)
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
        "n": n,
        "dims": dims,
        "full_dims": full,
        "stable_n": stable_n,
        "d_squared_ok": not (structure_failures(X.total) or
                             da.d_squared_failures(range(-2, 2), weights)),
        "q_chain_map_ok": da.q_chain_ok(),
        "system_compat_ok": da.closed_ok(),
    }


# ---------------------------------------------------------------------------
# fundamental-group demo
# ---------------------------------------------------------------------------


def punctured_line_model(k):
    """Formal cohomology model of the line minus k rational points:
    k-1 degree-1 weight-1 classes with vanishing products."""
    if k < 2:
        raise RelativeError("need at least 2 punctures")
    gens = [
        GeneratorSpec(f"a{i}", 1, 1, group="pts") for i in range(k - 1)
    ]
    return CdgaPresentation(f"P1minus{k}", "table", gens)


def pi1_demo(k, w_max):
    from .bar import gamma, polynomial_dims

    A = punctured_line_model(k)
    gam = gamma(A, w_max)
    gdims = gam.dims()
    return {
        "punctures": k,
        "model": A.name,
        "h0_dims": gam.hopf.dims(),
        "gamma_dims": gdims,
        "polynomial_dims": polynomial_dims(gdims, w_max),
        "note": (
            "coefficients are taken over the mock trivial base field; "
            "the arithmetic cycle algebra of the actual base is not "
            "modeled, only the formal cohomology of the punctured line"
        ),
    }
