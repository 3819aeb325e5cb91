from fractions import Fraction

import pytest

from adamsbar.cdga import (
    UNIT,
    GeneratorSpec,
    d_squared_failures,
    el_gen,
    structure_failures,
)
from adamsbar.bar import HopfPresentation, _wadd, h0_hopf
from adamsbar.minimal import trivial_base
from adamsbar.parser import parse_text
from adamsbar import relative
from adamsbar.relative import (
    AugmentedOverN,
    DeltaApprox,
    RelativeError,
    coaction_check,
    delta_approximation,
    fiber_algebra,
    pi1_demo,
    punctured_line_model,
    relative_bar_h0,
    semidirect,
    split_monomial,
)
from corpus import (
    make_e1,
    make_e2,
    make_e3,
    make_e4,
    make_e4p,
    make_k,
    random_gen_nilpotent,
)
from test_cli import (
    CURVED_TEXT,
    E1_TEXT,
    E4_TEXT,
    LEIBNIZ_TOTAL_TEXT,
    LEIBNIZ_WITNESSES,
    N2_TEXT,
    T_BASE_TEXT,
)
from reference import (
    ReferenceRelativeBar,
    reference_coaction_split,
    reference_relative_d_key,
    k_kernel_dims,
    k_total_dims,
    lyndon_count,
    reference_delta_dims,
    reference_truncated_h0,
)

F = Fraction


@pytest.fixture
def x4():
    return AugmentedOverN(make_e1("t"), make_e4())


@pytest.fixture
def x4p():
    return AugmentedOverN(make_e1("t"), make_e4p())


def test_augmented_rejects_missing_base():
    with pytest.raises(RelativeError):
        AugmentedOverN(make_e1("q"), make_e4())


def test_split_monomial_signs(x4):
    A = x4.total
    # u*t stored sorted as t*u already; v*t needs a transposition
    b, f, s = split_monomial(A, (("t", 1), ("u", 1)), x4.base_names)
    assert (b, f, s) == ((("t", 1),), (("u", 1),), 1)
    b, f, s = split_monomial(A, (("u", 1), ("v", 1)), {"v"})
    # pulling the degree-1 factor v over the degree-1 factor u
    assert (b, f, s) == ((("v", 1),), (("u", 1),), -1)


def test_fiber_algebra_e4(x4):
    Falg, conn = fiber_algebra(x4)
    assert [g.name for g in Falg.generators] == ["u", "v"]
    assert Falg.differential == {}
    assert conn == {"v": {(("t", 1),): {(("u", 1),): F(1)}}}


def test_fiber_algebra_e4p(x4p):
    Falg, conn = fiber_algebra(x4p)
    assert Falg.differential == {"w": {(("u", 1), ("v", 1)): F(1)}}
    assert conn["w"] == {(("t", 1),): {(("v", 1),): F(1)}}


def test_relative_bar_trivial_base():
    X = AugmentedOverN(trivial_base(), make_e3())
    rb = relative_bar_h0(X, 3)
    assert not rb.d_squared_failures(range(-1, 3), range(4))
    assert rb.hopf.dims() == h0_hopf(make_e3(), 3).dims()


def test_relative_bar_e4(x4):
    rb = relative_bar_h0(x4, 3)
    assert not rb.d_squared_failures(range(-1, 3), range(4))
    assert rb.hopf.dims()[0] == 1
    assert rb.hopf.dims()[1] == 1


def _curved():
    return AugmentedOverN(parse_text(N2_TEXT)[1], parse_text(CURVED_TEXT)[1])


def test_relative_bar_curved_total_is_not_flat():
    """d^2 w = -s*t*u: D^2 (1 (x) [w]) = +-s*t (x) [u] is nonzero in
    total degree 0 and weight 3, and D^2 of 1 (x) [u|w] and 1 (x) [w|u]
    in weight 4."""
    rb = relative_bar_h0(_curved(), 4)
    assert rb.d_squared_failures(range(-1, 3), range(5)) == [(0, 3), (0, 4)]


RELATIVE_CASES = [
    pytest.param(lambda: make_e1("t"), make_e4, id="e4-over-e1"),
    pytest.param(lambda: make_e1("t"), make_e4p, id="e4p-over-e1"),
    pytest.param(trivial_base, make_e3, id="e3"),
    pytest.param(lambda: parse_text(N2_TEXT)[1],
                 lambda: parse_text(CURVED_TEXT)[1], id="curved"),
] + [
    pytest.param(lambda: make_e1("t"), lambda s=seed: random_gen_nilpotent(s),
                 id=f"gn{seed}")
    for seed in range(20)
]


@pytest.mark.parametrize("base, total", RELATIVE_CASES)
def test_relative_bar_matches_reference(base, total):
    """faces splits into F's own bar d (b = 1) and the reference
    connection gamma_word (b != 1), and D^2 = 0 on total degrees -1..2
    exactly when the reference's connection is flat, at w <= 4."""
    X = AugmentedOverN(base(), total())
    rb = relative_bar_h0(X, 4)
    ref = ReferenceRelativeBar(X, 4)
    for w in range(5):
        for word in rb.bar.words_of_weight(w):
            d, gamma = {}, {}
            for b, nw, c in rb.faces(word):
                if b == UNIT:
                    _wadd(d, nw, c)
                else:
                    _wadd(gamma, (b, nw), c)
            assert d == rb.bar.d_word(word), word
            assert gamma == ref.gamma_word(word), word
    assert (not rb.d_squared_failures(range(-1, 3), range(5))) == ref.flat


@pytest.mark.parametrize("base, total", RELATIVE_CASES[:3])
def test_relative_bar_differential_is_exact(base, total):
    """D is a SliceComplex d: every column entry at w <= 3, degrees
    -1..3, is an int or a Fraction."""
    rb = relative_bar_h0(AugmentedOverN(base(), total()), 3)
    for w in range(4):
        for n in range(-1, 4):
            for col in rb.d_columns(n, w):
                for c in col.values():
                    assert type(c) in (int, F), (n, w, c)


@pytest.mark.parametrize("total", [make_e4, make_e4p, lambda: make_k(4)],
                         ids=["e4", "e4p", "k4"])
def test_relative_d_key_matches_reference(total, monkeypatch):
    """D of every key of weight <= 4 over E1 gives reference_relative_d_key's
    values, types and key order, reading d and products of monomials off
    the total algebra's memos (no apply_d or multiply call), and faces
    reads the degree of a face's prefix only where its base monomial has
    odd degree."""
    rb = relative_bar_h0(AugmentedOverN(make_e1("t"), total()), 4)
    A = rb.X.total
    keys = [key for w in range(5) for n in range(-4, 6)
            for key in rb.slice(n, w)]
    want = [reference_relative_d_key(rb, key) for key in keys]

    def forbidden(*args):
        raise AssertionError("d_key went through apply_d or multiply")

    monkeypatch.setattr(A, "apply_d", forbidden)
    monkeypatch.setattr(A, "multiply", forbidden)
    prefixes = []
    bidegree = rb.bar.word_bidegree

    def recorded(word):
        prefixes.append(word)
        return bidegree(word)

    monkeypatch.setattr(rb.bar, "word_bidegree", recorded)
    assert rb._faces == {} and any(want)
    for (n, w, key), d in zip(((n, w, key) for w in range(5)
                               for n in range(-4, 6)
                               for key in rb.slice(n, w)), want):
        got = rb.d_key(n, w, key)
        assert ([(k, type(c), c) for k, c in got.items()]
                == [(k, type(c), c) for k, c in d.items()]), key
    odd = sum(A.mono_bidegree(b)[0] % 2 for faces in rb._faces.values()
              for b, _, _ in faces)
    assert 0 < len(prefixes) == odd


@pytest.mark.parametrize("seed", range(6))
def test_relative_bar_flat_random(seed):
    A = random_gen_nilpotent(seed)
    X = AugmentedOverN(make_e1("t"), A)
    rb = relative_bar_h0(X, 3)
    assert not rb.d_squared_failures(range(-1, 3), range(4))


def _curved_variant(seed):
    """random_gen_nilpotent(seed) with CURVED_TEXT's curvature adjoined over
    t: fiber generators u, s of weight 1, d v = t*u and d w = s*v, so
    d^2 w = -s*t*u lies only in the base-mixed part."""
    A = random_gen_nilpotent(seed)
    for name, wt, d in (("u", 1, None), ("s", 1, None),
                        ("v", 2, {(("t", 1), ("u", 1)): 1}),
                        ("w", 3, {(("s", 1), ("v", 1)): 1})):
        A.adjoin(GeneratorSpec(name, 1, wt), d=d, aug={})
    return A


def _table_total(valid):
    text = LEIBNIZ_TOTAL_TEXT
    return parse_text(text.replace("d q = 1*r\n", "") if valid else text)[1]


# (base, total, structure_failures of the total); every generator has weight
# <= 3 and degree <= 3, so d(d(g)) != 0 shows in D^2 of 1 (x) [g], of total
# degree <= 2
ORACLE_CASES = [
    pytest.param(lambda: make_e1("t"), lambda s=seed: random_gen_nilpotent(s),
                 [], id=f"gn{seed}")
    for seed in range(10)
] + [
    pytest.param(lambda: make_e1("t"), lambda s=seed: _curved_variant(s),
                 ["d^2(w) != 0"], id=f"gn{seed}-curved")
    for seed in range(5)
] + [
    pytest.param(lambda: make_e1("t"), make_e4, [], id="e4"),
    pytest.param(lambda: make_e1("t"), make_e4p, [], id="e4p"),
    pytest.param(lambda: make_e1("t"), lambda: make_k(4), [], id="k4"),
    pytest.param(lambda: parse_text(T_BASE_TEXT)[1],
                 lambda: _table_total(True), [], id="table"),
    pytest.param(lambda: parse_text(T_BASE_TEXT)[1],
                 lambda: _table_total(False), LEIBNIZ_WITNESSES,
                 id="table-leibniz"),
]


@pytest.mark.parametrize("base, total, failures", ORACLE_CASES)
def test_structure_failures_match_the_relative_d_squared(base, total,
                                                         failures):
    """The relative verdicts read structure_failures of the total in place
    of D^2 on the slices of N (x) Bbar(F): D^2 = 0 on total degrees -1..2
    and weights <= 3 exactly when the total is a cdga.  The curved
    variants fail d^2 on a generator, the Leibniz-breaking table only
    Leibniz, which d_squared_failures does not see."""
    X = AugmentedOverN(base(), total())
    rb = relative_bar_h0(X, 3)
    assert structure_failures(X.total) == failures
    assert d_squared_failures(X.total) == [
        f for f in failures if f.startswith("d^2")]
    assert (not rb.d_squared_failures(range(-1, 3), range(4))) == (
        not failures)


def test_semidirect_e4(x4):
    sd = semidirect(x4, 4)
    assert sd.verdict == "pass"
    assert all(sd.base_dims[w] == 1 for w in range(5))
    for w in range(5):
        assert sd.total_dims[w] == sum(
            sd.base_dims[w1] * sd.kernel_dims[w - w1] for w1 in range(w + 1)
        )
    assert sd.identity_ok and sd.indecomp_ok and sd.sp_identity_ok


@pytest.mark.parametrize("k", range(2, 6))
def test_semidirect_k_family_matches_polynomial_dims(k):
    """K_k over E1: the fiber's gamma is abelian, so the kernel dims are
    those of a polynomial algebra, read off a rational function with no
    bar construction, and the total dims are their partial sums."""
    sd = semidirect(AugmentedOverN(make_e1("t"), make_k(k)), 4)
    assert sd.verdict == "pass"
    assert sd.kernel_dims == k_kernel_dims(k, 4)
    assert sd.total_dims == k_total_dims(k, 4)
    assert sd.base_dims == {w: 1 for w in range(5)}


def test_semidirect_trivial_base():
    X = AugmentedOverN(trivial_base(), make_e3())
    sd = semidirect(X, 3)
    assert sd.verdict == "pass"
    assert sd.kernel_dims == sd.total_dims
    assert all(sd.base_dims[w] == 0 for w in range(1, 4))


def test_semidirect_trivial_fiber():
    X = AugmentedOverN(make_e1("t"), make_e1("t"))
    sd = semidirect(X, 3)
    assert sd.verdict == "pass"
    assert all(sd.kernel_dims[w] == 0 for w in range(1, 4))
    assert sd.p_star == {0: {0: F(1)}, 1: {1: F(1)}} or sd.p_star == {
        0: {0: F(1)}
    }


def test_coaction_e4(x4):
    ok, matrix = coaction_check(x4, 4)
    assert ok
    assert matrix == {("v", "t", "u"): F(1)}


def test_coaction_e4p(x4p):
    ok, matrix = coaction_check(x4p, 4)
    assert ok
    assert matrix == {
        ("v", "t", "u"): F(1),
        ("w", "t", "v"): F(1),
    }


@pytest.mark.parametrize("seed", range(20))
def test_coaction_random(seed):
    A = random_gen_nilpotent(seed)
    X = AugmentedOverN(make_e1("t"), A)
    ok, matrix = coaction_check(X, 4)
    assert ok, matrix


COACTION_CASES = [
    pytest.param(lambda: make_e1("t"), make_e4, id="e4"),
    pytest.param(lambda: make_e1("t"), make_e4p, id="e4p"),
    pytest.param(lambda: parse_text(E1_TEXT)[1],
                 lambda: parse_text(E4_TEXT.replace("d v = 1*t*u",
                                                    "d v = 1/2*t*u"))[1],
                 id="e4-half"),
    pytest.param(lambda: make_e1("t"), lambda: make_k(4), id="k4"),
    pytest.param(lambda: parse_text(N2_TEXT)[1],
                 lambda: parse_text(CURVED_TEXT)[1], id="curved"),
] + [
    pytest.param(lambda: make_e1("t"), lambda s=seed: random_gen_nilpotent(s),
                 id=f"gn{seed}")
    for seed in range(20)
]


@pytest.mark.parametrize("base, total", COACTION_CASES)
def test_coaction_matches_reference(base, total):
    """The co-action that coaction_check and semidirect report, Gamma on
    E^1, is the reference read straight off d_A, value for value and
    Fraction for Fraction, at w <= 4 and at w <= 1 (which drops the
    generators of weight 2 and more)."""
    X = AugmentedOverN(base(), total())
    for w_max in (4, 1):
        want = reference_coaction_split(X, w_max)
        _, got = coaction_check(X, w_max)
        assert ([(k, type(c), c) for k, c in sorted(got.items())]
                == [(k, type(c), c) for k, c in sorted(want.items())])
    assert semidirect(X, 3).coaction == reference_coaction_split(X, 3)


def test_coaction_check_builds_no_bar_construction(x4, monkeypatch):
    """coaction_check reads Gamma off fiber_algebra: it builds neither the
    relative bar complex nor a HopfPresentation, whose constructor
    computes H^0 of the fiber's bar construction."""
    def forbidden(*args):
        raise AssertionError("coaction_check built a bar construction")

    monkeypatch.setattr(HopfPresentation, "__init__", forbidden)
    monkeypatch.setattr(relative.RelativeBarH0, "__init__", forbidden)
    assert coaction_check(x4, 4) == (True, {("v", "t", "u"): F(1)})
    with pytest.raises(AssertionError, match="bar construction"):
        relative_bar_h0(x4, 4)


def test_delta_n0():
    X = AugmentedOverN(trivial_base(), make_e2())
    rep = delta_approximation(X, 0, 2)
    assert rep["dims"][0] == {0: 1, 1: 0, 2: 0}


def test_delta_e2_stabilizes():
    X = AugmentedOverN(trivial_base(), make_e2())
    rep = delta_approximation(X, 3, 2)
    assert rep["stable_n"] == 2
    assert rep["dims"][2][2] == 4
    assert rep["d_squared_ok"]
    assert rep["q_chain_map_ok"]
    assert rep["system_compat_ok"]


@pytest.mark.parametrize("mk", [make_e1, make_e2, make_e3])
def test_delta_matches_bar(mk):
    A = mk()
    X = AugmentedOverN(trivial_base(), A)
    w_max = 3
    rep = delta_approximation(X, 3, w_max)
    full = reference_truncated_h0(A, 8, w_max)
    for n in range(4):
        for w in range(min(n, w_max) + 1):
            assert rep["dims"][n][w] == full[w], (n, w)
    assert rep["d_squared_ok"] and rep["q_chain_map_ok"]
    assert rep["system_compat_ok"]


def test_delta_differential_is_exact():
    """The unit letter has odd suspended degree -1, so the face signs see
    negative exponents; every matrix entry must still be exact, an int or
    a Fraction (a float entry would make the elimination inexact)."""
    D = DeltaApprox(make_e3(), 3, 3)
    for w in range(4):
        for deg in (-2, -1, 0, 1, 2):
            for col in D.d_columns(deg, w):
                for c in col.values():
                    assert type(c) in (int, F), (deg, w, c)


DELTA_CASES = [
    pytest.param(trivial_base, mk, id=mk.__name__)
    for mk in (make_e1, make_e2, make_e3, make_e4)
] + [
    pytest.param(lambda: make_e1("t"), mk, id=f"{mk.__name__}-over-e1")
    for mk in (make_e4, make_e4p)
]


@pytest.mark.parametrize("base, total", DELTA_CASES)
def test_delta_matches_reference(base, total):
    """Every table and stable_n read off the one complex at n equal a
    separate complex per simplex size."""
    X = AugmentedOverN(base(), total())
    Falg, _ = fiber_algebra(X)
    w_max = 3
    for n in range(5):
        rep = delta_approximation(X, n, w_max)
        full = reference_truncated_h0(Falg, n + w_max + 1, w_max)
        assert (rep["dims"], rep["stable_n"]) == reference_delta_dims(
            Falg, n, w_max, full), n


def _broken_delta(monkeypatch, d_basis):
    """delta_approximation(E3, 3, 3) with DeltaApprox.d_basis replaced."""
    broken = type("BrokenDelta", (DeltaApprox,), {"d_basis": d_basis})
    monkeypatch.setattr(relative, "DeltaApprox", broken)
    return delta_approximation(AugmentedOverN(trivial_base(), make_e3()), 3, 3)


def test_delta_bad_sign_fails_d_squared(monkeypatch):
    def d_basis(self, S, word):
        # flip the inner d faces of words that carry a unit letter
        out = DeltaApprox.d_basis(self, S, word)
        if UNIT in word:
            out = {(S2, w2): -c if S2 == S else c
                   for (S2, w2), c in out.items()}
        return out

    assert not _broken_delta(monkeypatch, d_basis)["d_squared_ok"]


def test_delta_dropped_unit_face_fails_q_chain(monkeypatch):
    def d_basis(self, S, word):
        # lose the front counit face
        out = DeltaApprox.d_basis(self, S, word)
        if word and word[0] == UNIT:
            out.pop((S[1:], word[1:]), None)
        return out

    assert not _broken_delta(monkeypatch, d_basis)["q_chain_map_ok"]


def test_delta_face_leaving_its_simplex_fails_closure(monkeypatch):
    def d_basis(self, S, word):
        # shift the front counit face one vertex up, past the top of S
        out = DeltaApprox.d_basis(self, S, word)
        face = (S[1:], word[1:])
        if face in out and S[-1] < self.n:
            out[(tuple(v + 1 for v in S[1:]), word[1:])] = out.pop(face)
        return out

    assert not _broken_delta(monkeypatch, d_basis)["system_compat_ok"]


def test_delta_inner_face_leaving_its_simplex_fails_closure(monkeypatch):
    def d_basis(self, S, word):
        # move the top vertex of the d faces of words [1|..] up one: the
        # front counit face (S[1:], ..) still has the largest position in
        # the column, so only a check of every face sees it
        out = DeltaApprox.d_basis(self, S, word)
        if word[:1] == (UNIT,) and S[-1] < self.n:
            up = S[:-1] + (S[-1] + 1,)
            out = {(up if S2 == S else S2, w2): c
                   for (S2, w2), c in out.items()}
        return out

    assert not _broken_delta(monkeypatch, d_basis)["system_compat_ok"]


def test_delta_relative_base():
    X = AugmentedOverN(make_e1("t"), make_e4())
    rep = delta_approximation(X, 3, 3)
    # fiber bar dims of E4 over E1
    assert rep["full_dims"] == reference_truncated_h0(fiber_algebra(X)[0], 8, 3)
    assert rep["stable_n"] == 3
    assert rep["d_squared_ok"]


def test_pi1_demo_rejects_one_puncture():
    with pytest.raises(RelativeError):
        pi1_demo(1, 3)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_pi1_demo_lyndon(k):
    rep = pi1_demo(k, 4)
    for w in range(1, 5):
        assert rep["gamma_dims"][w] == lyndon_count(k - 1, w), (k, w)
    assert "mock" in rep["note"]


def test_pi1_demo_builds_no_coproduct(monkeypatch):
    """pi1-demo reads dims and gamma, never a coproduct."""
    built = []
    monkeypatch.setattr(HopfPresentation, "coproduct_of",
                        lambda self, w, k: built.append((w, k)))
    pi1_demo(4, 4)
    assert built == []


def test_pi1_demo_fixed_tables():
    assert list(pi1_demo(2, 4)["gamma_dims"].values()) == [1, 0, 0, 0]
    assert list(pi1_demo(3, 4)["gamma_dims"].values()) == [2, 1, 2, 3]
    assert list(pi1_demo(4, 4)["gamma_dims"].values()) == [3, 3, 8, 18]


def test_punctured_line_model_products_vanish():
    A = punctured_line_model(4)
    assert A.multiply(el_gen("a0"), el_gen("a1")) == {}
