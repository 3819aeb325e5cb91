"""Augmented cdgas over a base, their fibers and semi-direct products.

An augmented algebra over a base N is a total algebra A that contains
N's generators verbatim, whatever the two algebras are named, together
with an augmentation killing the remaining ("fiber") generators.  The
fiber algebra Sym*E = A (x)_N Q carries the reduced differential d0; the
base-valued remainder of d is a flat nilpotent connection Gamma.  The
total is a cdga (cli._augmented refuses any other), so the relative bar
complex N (x) Bbar(F), which is not built, has D^2 = 0.  This module
computes, as numbers only:

  * the fiber algebra and its connection after the relative input checks
    (checked_fiber, which all four relative commands call first on their
    AugmentedOverN: kernel, coaction-check, delta-approx and
    minimal.relative_minimal_model),
  * the semi-direct product data (the dims of the kernel Hopf algebra
    H^0(Bbar(F)), the polynomial-extension dimension identity), every
    H^0 dim read by rank off a bar complex, with no class built,
  * the base's co-action on the degree-1 kernel generators: Gamma
    restricted to E^1 (coaction_matrix),
  * the finite simplicial approximations: H^0 of the bar construction
    spread over the faces of the nn-simplex, each read as H^0 of the bar
    complex truncated at word length nn, to which the complex of the
    nn-simplex is quasi-isomorphic (README), and
  * the punctured-line fundamental-group demo over a mock trivial base:
    H^0 read by rank, as for the semi-direct data, and gamma's dims by
    the inverse Euler transform of H^0's (H^0 is free on gamma), so
    polynomial_dims equals h0_dims by construction and is kept for the
    report's format; no Hopf or co-Lie class is built.
"""

from fractions import Fraction

from .cdga import (
    UNIT,
    CdgaPresentation,
    GeneratorSpec,
    augmentation_failures,
    base_mismatches,
)
from .bar import (
    BarComplex,
    _wadd,
    polynomial_dims,
    require_connected,
)

F = Fraction


class RelativeError(Exception):
    pass


class AugmentedOverN:
    """Total algebra A with a distinguished base subalgebra N: the one
    reading of a (base, total) pair by every relative command.

    The base generators are N's: they must appear in the total algebra
    verbatim and are fixed by the augmentation.  Every other generator is
    a fiber generator, with or without an aug line, and must augment to
    zero (the supported normal form — a nonzero N-valued augmentation
    can always be removed by the change of variables e -> e - eps(e)).
    eps must be a chain map: eps(d g) = 0 for each fiber generator g
    (cdga.augmentation_failures).  eps is that augmentation A -> N as a
    generator map for total.substitute: it kills the fiber generators.
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
        self.eps = {g.name: {} for g in self.fiber}
        failures = augmentation_failures(total, self.eps)
        if failures:
            raise RelativeError("; ".join(failures))


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
    Element}; the base monomial is always nontrivial.  The fiber keeps
    the table products of two fiber generators, none in a free total.
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
    for (a, b), val in A.products.items():
        if a not in X.base_names and b not in X.base_names:
            for mono in val:
                if any(n in X.base_names for n, _ in mono):
                    raise RelativeError(
                        f"table product {a}*{b} mixes base factors"
                    )
            products[(a, b)] = val
    Falg = CdgaPresentation(f"{A.name}_fiber", gens, d0, products,
                            {g.name: {} for g in gens})
    return Falg, conn


def checked_fiber(X: AugmentedOverN, w_max):
    """fiber_algebra(X) after the relative input checks, in order: the base
    is connected, the fiber's table products valid and the fiber connected
    up to weight w_max.  semidirect, delta_approximation, the CLI's
    coaction-check and minimal.relative_minimal_model each call it first.
    The total must have right bidegrees (cdga.check_bidegrees, which the
    CLI runs on every input): then (weight, -degree) strictly falls along
    every use of a fiber generator in d, so the total is generalized
    nilpotent over the base."""
    require_connected(X.base, w_max)
    Falg, conn = fiber_algebra(X)
    require_connected(Falg, w_max)
    return Falg, conn


class SemiDirectData:
    def __init__(self, weights, kernel_dims, base_dims, total_dims,
                 identity_ok, coaction):
        self.weights = weights
        self.kernel_dims = kernel_dims
        self.base_dims = base_dims
        self.total_dims = total_dims
        self.identity_ok = identity_ok
        self.coaction = coaction


def semidirect(X: AugmentedOverN, w_max):
    """SemiDirectData after checked_fiber's input checks; identity_ok is
    the dimension identity, which kernel passes or fails on."""
    Falg, conn = checked_fiber(X, w_max)
    require_connected(X.total, w_max)
    weights = list(range(w_max + 1))
    # only dims are read, so each is a rank count off one length level
    kernel_dims, base_dims, total_dims = (
        BarComplex(A).filtered_h0(len, [w_max], weights)[w_max]
        for A in (Falg, X.base, X.total))
    identity_ok = all(
        total_dims[w]
        == sum(base_dims[w1] * kernel_dims[w - w1] for w1 in range(w + 1))
        for w in weights
    )
    return SemiDirectData(
        weights, kernel_dims, base_dims, total_dims, identity_ok,
        coaction_matrix(X, conn, w_max),
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


# ---------------------------------------------------------------------------
# finite simplicial approximations
# ---------------------------------------------------------------------------


def delta_approximation(X: AugmentedOverN, n, w_max):
    """Simplicial approximations of the fiber bar complex for all
    simplex sizes nn <= n, with a stabilization report against the fiber
    bar complex's H^0.  H^0 of the bar construction spread over the faces
    of the nn-simplex is H^0 of the bar complex truncated at word length
    nn (README, "Simplicial approximation"), so every table is one level
    of the bar complex's length filtration: nn for each nn <= n, and
    w_max for full_dims, as a weight-w word has at most w letters.  The
    total is a cdga, so d^2 = 0 on the fiber's bar complex: the fiber is
    the total's quotient by a dg ideal."""
    Falg, _ = checked_fiber(X, w_max)
    weights = range(w_max + 1)
    truncated = BarComplex(Falg).filtered_h0(
        len, sorted(set(range(n + 1)) | {w_max}), weights)
    dims = {nn: truncated[nn] for nn in range(n + 1)}
    full = truncated[w_max]
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
    }


# ---------------------------------------------------------------------------
# fundamental-group demo
# ---------------------------------------------------------------------------


def punctured_line_model(k):
    """Formal cohomology model of the line minus k rational points:
    k-1 degree-1 weight-1 classes with vanishing products."""
    if k < 2:
        raise RelativeError("need at least 2 punctures")
    gens = [GeneratorSpec(f"a{i}", 1, 1, table=True) for i in range(k - 1)]
    return CdgaPresentation(f"P1minus{k}", gens)


def pi1_demo(k, w_max):
    """The pi1-demo report of the line minus k points up to weight w_max.

    h0_dims is read by rank off the bar complex, as semidirect does, with
    no class built.  H^0 is a commutative connected Hopf algebra over Q,
    so it is free on gamma (Leray; Milnor-Moore) and its dims fix
    gamma's: gamma_w = h_w - [t^w] prod_{v<w} (1 - t^v)^(-gamma_v), the
    inverse Euler transform, so no decomposables echelon is built.
    polynomial_dims then equals h0_dims by construction; the field is
    kept for the report's format."""
    A = punctured_line_model(k)
    require_connected(A, w_max)
    h = BarComplex(A).filtered_h0(len, [w_max], range(w_max + 1))[w_max]
    g = {}
    for w in range(1, w_max + 1):
        g[w] = h[w] - polynomial_dims(g, w)[w]
    return {
        "punctures": k,
        "model": A.name,
        "h0_dims": h,
        "gamma_dims": g,
        "polynomial_dims": polynomial_dims(g, w_max),
        "note": (
            "coefficients are taken over the mock trivial base field; "
            "the arithmetic cycle algebra of the actual base is not "
            "modeled, only the formal cohomology of the punctured line"
        ),
    }
