import functools
from fractions import Fraction

import pytest

from adamsbar.cdga import (
    UNIT,
    GeneratorSpec,
    d_squared_failures,
    el_gen,
    is_coh_connected,
    structure_failures,
)
from adamsbar.bar import (
    BarComplex, CoLiePresentation, HopfPresentation, gamma, h0_hopf)
from adamsbar.minimal import trivial_base
from adamsbar.parser import parse_text
from adamsbar.relative import (
    AugmentedOverN,
    RelativeError,
    SemiDirectData,
    checked_fiber,
    coaction_matrix,
    delta_approximation,
    fiber_algebra,
    pi1_demo,
    punctured_line_model,
    semidirect,
    split_monomial,
)
from corpus import (
    make_e1,
    make_e2,
    make_e3,
    make_e4,
    make_e4p,
    make_e4q,
    make_k,
    random_free_cdga,
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
    random_relative_totals,
)
from reference import (
    DeltaApprox,
    ReferenceRelativeBar,
    TruncatedBar,
    delta_closure_failures,
    delta_q_chain_failures,
    extension_maps,
    hopf_extension,
    reference_coaction_split,
    reference_sp,
    k_kernel_dims,
    linear_h1_dims,
    k_total_dims,
    lyndon_count,
    reference_delta_approximation,
    reference_delta_dims,
    reference_truncated_h0,
    slice_d_squared_failures,
    sp_composite,
)

F = Fraction


def coaction(X, w_max):
    """coaction-check's co-action: coaction_matrix after checked_fiber."""
    return coaction_matrix(X, checked_fiber(X, w_max)[1], w_max)


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
    """Over the trivial base the relative bar complex is Bbar(E3): flat,
    and the kernel is H^0 of E3's bar construction."""
    X = AugmentedOverN(trivial_base(), make_e3())
    assert ReferenceRelativeBar(X, 3).flat
    assert semidirect(X, 3).kernel_dims == h0_hopf(make_e3(), 3).dims()


def test_relative_bar_e4(x4):
    assert ReferenceRelativeBar(x4, 3).flat
    kernel_dims = semidirect(x4, 3).kernel_dims
    assert kernel_dims[0] == kernel_dims[1] == 1


def _curved():
    return AugmentedOverN(parse_text(N2_TEXT)[1], parse_text(CURVED_TEXT)[1])


def test_relative_bar_curved_total_is_not_flat():
    """d^2 w = -s*t*u: D^2 (1 (x) [w]) = +-s*t (x) [u] is nonzero in
    total degree 0 and weight 3, and D^2 of 1 (x) [u|w] and 1 (x) [w|u]
    in weight 4."""
    u, w = (("u", 1),), (("w", 1),)
    ref = ReferenceRelativeBar(_curved(), 4)
    assert not ref.flat
    assert ref.flat_failures == [(0, 3, (w,)), (0, 4, (u, w)), (0, 4, (w, u))]


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
    """The reference relative bar complex reads fiber_algebra's connection:
    on the one-letter word [g] of a fiber generator its Gamma is conn[g],
    each fiber monomial a letter of its own.  And it is flat on total
    degrees -1..2 at w <= 4 exactly when the total is a cdga, the
    statement the relative commands' refusal of a total relies on."""
    X = AugmentedOverN(base(), total())
    _, conn = fiber_algebra(X)
    ref = ReferenceRelativeBar(X, 4)
    for g in X.fiber:
        want = {(b, (fm,)): c for b, fel in conn.get(g.name, {}).items()
                for fm, c in fel.items()}
        assert ref.gamma_word((((g.name, 1),),)) == want, g.name
    assert ref.flat == (not structure_failures(X.total))


@pytest.mark.parametrize("seed", range(6))
def test_relative_bar_flat_random(seed):
    """A generalized nilpotent total over E1 is flat, and the kernel dims
    semidirect reports are H^0 of the fiber's bar construction, as the
    reference truncation at a length past every word of weight <= 3
    counts them."""
    X = AugmentedOverN(make_e1("t"), random_gen_nilpotent(seed))
    assert ReferenceRelativeBar(X, 3).flat
    assert semidirect(X, 3).kernel_dims == reference_truncated_h0(
        fiber_algebra(X)[0], 4, 3)


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
    pytest.param(lambda: parse_text(N2_TEXT)[1],
                 lambda: parse_text(CURVED_TEXT)[1], ["d^2(w) != 0"],
                 id="curved"),
    pytest.param(lambda: parse_text(T_BASE_TEXT)[1],
                 lambda: _table_total(True), [], id="table"),
    pytest.param(lambda: parse_text(T_BASE_TEXT)[1],
                 lambda: _table_total(False), LEIBNIZ_WITNESSES,
                 id="table-leibniz"),
]


@pytest.mark.parametrize("base, total, failures", ORACLE_CASES)
def test_structure_failures_match_the_relative_d_squared(base, total,
                                                         failures):
    """The relative commands refuse a total by its structure_failures in
    place of D^2 on N (x) Bbar(F), which the program does not build: the
    reference D^2 = 0 on total degrees -1..2 and weights <= 3 exactly when
    the total is a cdga.  The curved totals fail d^2 on a generator, the
    Leibniz-breaking table only Leibniz, which d_squared_failures does
    not see."""
    X = AugmentedOverN(base(), total())
    assert structure_failures(X.total) == failures
    assert d_squared_failures(X.total) == [
        f for f in failures if f.startswith("d^2")]
    assert ReferenceRelativeBar(X, 3).flat == (not failures)


def test_semidirect_e4(x4):
    sd = semidirect(x4, 4)
    assert sd.identity_ok
    assert all(sd.base_dims[w] == 1 for w in range(5))
    for w in range(5):
        assert sd.total_dims[w] == sum(
            sd.base_dims[w1] * sd.kernel_dims[w - w1] for w1 in range(w + 1)
        )


@pytest.mark.parametrize("k", range(2, 6))
def test_semidirect_k_family_matches_polynomial_dims(k):
    """K_k over E1: the fiber's gamma is abelian, so the kernel dims are
    those of a polynomial algebra, read off a rational function with no
    bar construction, and the total dims are their partial sums."""
    sd = semidirect(AugmentedOverN(make_e1("t"), make_k(k)), 4)
    assert sd.identity_ok
    assert sd.kernel_dims == k_kernel_dims(k, 4)
    assert sd.total_dims == k_total_dims(k, 4)
    assert sd.base_dims == {w: 1 for w in range(5)}


def test_semidirect_trivial_base():
    X = AugmentedOverN(trivial_base(), make_e3())
    sd = semidirect(X, 3)
    assert sd.identity_ok
    assert sd.kernel_dims == sd.total_dims
    assert all(sd.base_dims[w] == 0 for w in range(1, 4))


def test_semidirect_trivial_fiber():
    X = AugmentedOverN(make_e1("t"), make_e1("t"))
    sd = semidirect(X, 3)
    assert sd.identity_ok
    assert all(sd.kernel_dims[w] == 0 for w in range(1, 4))
    assert reference_sp(X, 3)[0] == {0: {0: F(1)}}


SP_CASES = [
    pytest.param(make_e4, id="e4"),
    pytest.param(make_e4p, id="e4p"),
    pytest.param(lambda: make_k(4), id="k4"),
] + [
    pytest.param(lambda s=seed: random_gen_nilpotent(s), id=f"gn{seed}")
    for seed in range(4)
]


@pytest.mark.parametrize("total", SP_CASES)
def test_semidirect_p_star_s_star_match_reference(total):
    """s* o p* = id on gamma of the base E1 at w <= 3, for the reference
    p* and s*: kernel does not check it, since the augmentation fixes the
    base and so s o p = id_N on every input."""
    X = AugmentedOverN(make_e1("t"), total())
    p_star, s_star = reference_sp(X, 3)
    assert p_star and s_star
    assert sp_composite(p_star, s_star) == {gi: {gi: F(1)} for gi in p_star}


def _connected_cdga_totals():
    """The totals of random_relative_totals(0, 100) that are cdgas and
    cohomologically connected up to weight 3, and random_gen_nilpotent
    0..59."""
    for _, text in random_relative_totals(0, 100):
        A = parse_text(text)[1]
        if not structure_failures(A) and is_coh_connected(A, 3)[0]:
            yield A
    for seed in range(60):
        yield random_gen_nilpotent(seed)


def test_gamma_counts_the_linear_part_of_d():
    """gamma_w of H^0(Bbar A) at w <= 3 is dim H^1(V, d1)_w, the cohomology
    of the linear part of d on the generators of weight w: the count of
    degree-1 generators of a minimal model.  Counting A's own degree-1
    generators is wrong once d has a linear part: seeded total 9, E1 plus
    the contractible pair d e1 = 2*e0, has two in weight 1 and
    gamma_1 = 1."""
    count = with_degree_0 = 0
    for A in _connected_cdga_totals():
        gam = CoLiePresentation(h0_hopf(A, 3))
        assert {w: len(gam.by_weight.get(w, [])) for w in range(1, 4)} \
            == linear_h1_dims(A, 3), A.name
        count += 1
        with_degree_0 += any(g.coh == 0 for g in A.generators)
    assert count >= 100 and with_degree_0 >= 10


# E1 and a contractible degree-0 pair in the fiber: d of the word [e0],
# of degree -1, is [e1], so H^0 has an incoming d in weight 1
DEGREE_0_TOTAL = ("cdga D free\ngen t deg 1 wt 1\ngen e0 deg 0 wt 1\n"
                  "gen e1 deg 1 wt 1\nd e0 = 1*e1\naug e0 = 0\naug e1 = 0\n")


@functools.cache
def _cdga_corpus():
    """The relative pairs of the cdga corpus that the rank readings of
    delta-approx and kernel are held to: E1-E3 over the trivial base,
    E4, E4p, E4q and K3-K5 over E1, random_free_cdga seeds 0..59 over
    the trivial base, random_gen_nilpotent seeds 0..59 over E1, and the
    cdga totals of random_relative_totals(0, 100) over their bases.  A
    pair whose augmentation is refused is left out."""
    E1 = make_e1("t")
    pairs = [(trivial_base(), mk()) for mk in (make_e1, make_e2, make_e3)]
    pairs += [(E1, A) for A in (make_e4(), make_e4p(), make_e4q())]
    pairs += [(E1, make_k(k)) for k in (3, 4, 5)]
    pairs += [(trivial_base(), random_free_cdga(s)) for s in range(60)]
    pairs += [(E1, random_gen_nilpotent(s)) for s in range(60)]
    for base, total in random_relative_totals(0, 100):
        A = parse_text(total)[1]
        if not structure_failures(A):
            pairs.append((parse_text(base)[1], A))
    out = []
    for base, total in pairs:
        try:
            out.append(AugmentedOverN(base, total))
        except RelativeError:
            pass
    return out


def _outcome(f, *args):
    """f(*args), or the type and message of the input error it raises."""
    try:
        return f(*args)
    except (RelativeError, ValueError) as e:
        return type(e), str(e)


def test_semidirect_rank_dims_match_the_classes():
    """semidirect reads the base, fiber and total H^0 dims by rank, off
    one length level of each bar complex; they equal the dims of
    HopfPresentation, which builds the classes, on the cdga corpus
    (E1-E4, K3-K5 and the seeded totals among them) and on a total whose
    degree-0 generator gives H^0 an incoming d."""
    D = AugmentedOverN(make_e1("t"), parse_text(DEGREE_0_TOTAL)[1])
    assert any(BarComplex(fiber_algebra(D)[0]).d_columns(-1, 1))
    count = with_degree_0 = 0
    for X in _cdga_corpus() + [D]:
        sd = _outcome(semidirect, X, 3)
        if not isinstance(sd, SemiDirectData):
            continue
        Falg = fiber_algebra(X)[0]
        assert (sd.kernel_dims, sd.base_dims, sd.total_dims) == tuple(
            HopfPresentation(A, 3).dims() for A in (Falg, X.base, X.total)
        ), X.total.name
        count += 1
        with_degree_0 += any(g.coh == 0 for g in X.total.generators)
    assert count >= 150 and with_degree_0 >= 5


# the totals over E1 on which the extension H^0(Bbar N) -> H^0(Bbar A) ->
# H^0(Bbar F) is exact at w <= 3
EXACT_EXTENSIONS = {
    "e4": make_e4, "e4p": make_e4p, "k4": lambda: make_k(4),
    **{f"gn{seed}": lambda seed=seed: random_gen_nilpotent(seed)
       for seed in (1, 2, 3, 29)},
}

# a table pair: base and fiber generators share the one table, so a0*a1 = 0
TABLE_PAIR = "cdga P table\ngen a0 deg 1 wt 1\n"


def _table_pair():
    return AugmentedOverN(parse_text(TABLE_PAIR)[1], parse_text(
        TABLE_PAIR + "gen a1 deg 1 wt 1\ngen a2 deg 1 wt 1\n"
        "aug a1 = 0\naug a2 = 0\n")[1])


EXTENSIONS = {**{name: lambda mk=mk: AugmentedOverN(make_e1("t"), mk())
                 for name, mk in EXACT_EXTENSIONS.items()},
              "table pair": _table_pair}


def _exact_ranks(X, w_max):
    """hopf_extension(X, w_max) of an exact extension: s_* injective, q_*
    onto and ker q_* the ideal generated by s_*(H^0(Bbar N)_+)."""
    ext = extension_maps(X, w_max)
    base, total, fiber = (h.dims() for h in (ext.base, ext.total, ext.fiber))
    return {w: (base[w], fiber[w], total[w] - fiber[w], total[w] - fiber[w])
            for w in range(w_max + 1)}


@pytest.mark.parametrize("case", sorted(EXACT_EXTENSIONS))
def test_hopf_extension_is_exact(case):
    """The extension is exact at every weight <= 3 on the named totals."""
    X = EXTENSIONS[case]()
    assert hopf_extension(X, 3) == _exact_ranks(X, 3)


def test_hopf_extension_is_exact_on_the_seeded_totals():
    """The extension is exact at every weight <= 3 on each of the 39
    totals of random_relative_totals(0, 100) that the relative input
    checks accept and that are cdgas."""
    count = 0
    for base, total in random_relative_totals(0, 100):
        try:
            X = AugmentedOverN(parse_text(base)[1], parse_text(total)[1])
            checked_fiber(X, 3)
        except (RelativeError, ValueError):
            continue
        if structure_failures(X.total):
            continue
        assert hopf_extension(X, 3) == _exact_ranks(X, 3), total
        count += 1
    assert count == 39


def test_hopf_extension_fails_on_the_table_pair():
    """On the table pair s_* is injective and q_* onto (ranks 1 and 2^w),
    but ker q_* (3^w - 2^w) is larger than the ideal where kernel's dims
    identity fails, from weight 2 on."""
    assert hopf_extension(_table_pair(), 3) == {
        0: (1, 1, 0, 0), 1: (1, 2, 1, 1), 2: (1, 4, 5, 3), 3: (1, 8, 19, 9)}


def _linear(coords, image):
    """sum_k c_k image[k], zero entries dropped."""
    out = {}
    for k, c in coords.items():
        for a, ca in image[k].items():
            out[a] = out.get(a, 0) + c * ca
    return {a: c for a, c in out.items() if c}


def _hopf_map_failures(src, dst, image, w_max):
    """The products and coproducts of src's classes at weights <= w_max
    that the map image[w][i] (dst-class coordinates of src's i-th
    weight-w class) does not carry to dst's."""
    failures = []
    dims = src.dims()
    for w1 in range(w_max + 1):
        for w2 in range(w_max + 1 - w1):
            for i in range(dims[w1]):
                for j in range(dims[w2]):
                    left = _linear(src.product_of(w1, i, w2, j),
                                   image[w1 + w2])
                    right = {}
                    for a, ca in image[w1][i].items():
                        for b, cb in image[w2][j].items():
                            for k, c in dst.product_of(w1, a, w2, b).items():
                                right[k] = right.get(k, 0) + ca * cb * c
                    if left != {k: c for k, c in right.items() if c}:
                        failures.append(("product", w1, i, w2, j))
    for w in range(w_max + 1):
        for k in range(dims[w]):
            left = {}
            for k2, c in image[w][k].items():
                for key, c2 in dst.coproduct_of(w, k2).items():
                    left[key] = left.get(key, 0) + c * c2
            right = {}
            for (w1, i, j), c in src.coproduct_of(w, k).items():
                for a, ca in image[w1][i].items():
                    for b, cb in image[w - w1][j].items():
                        key = (w1, a, b)
                        right[key] = right.get(key, 0) + c * ca * cb
            if ({key: c for key, c in left.items() if c}
                    != {key: c for key, c in right.items() if c}):
                failures.append(("coproduct", w, k))
    return failures


@pytest.mark.parametrize("case", sorted(EXTENSIONS))
def test_hopf_extension_maps_are_hopf_maps(case):
    """q_* s_* is the counit, and s_* and q_* carry products and
    coproducts to products and coproducts, on the exact cases and on the
    table pair alike."""
    ext = extension_maps(EXTENSIONS[case](), 3)
    for w in range(4):
        for coords in ext.s[w]:
            assert _linear(coords, ext.q[w]) == ({0: 1} if w == 0 else {})
    assert _hopf_map_failures(ext.base, ext.total, ext.s, 3) == []
    assert _hopf_map_failures(ext.total, ext.fiber, ext.q, 3) == []


def test_coaction_e4(x4):
    assert not structure_failures(x4.total)
    assert coaction(x4, 4) == {("v", "t", "u"): F(1)}


def test_coaction_e4p(x4p):
    assert not structure_failures(x4p.total)
    assert coaction(x4p, 4) == {
        ("v", "t", "u"): F(1),
        ("w", "t", "v"): F(1),
    }


@pytest.mark.parametrize("seed", range(20))
def test_coaction_random(seed):
    A = random_gen_nilpotent(seed)
    X = AugmentedOverN(make_e1("t"), A)
    matrix = coaction(X, 4)
    assert not structure_failures(A), matrix


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
    """The co-action that coaction-check and semidirect report, Gamma on
    E^1, is the reference read straight off d_A, value for value and
    Fraction for Fraction, at w <= 4 and at w <= 1 (which drops the
    generators of weight 2 and more)."""
    X = AugmentedOverN(base(), total())
    for w_max in (4, 1):
        want = reference_coaction_split(X, w_max)
        got = coaction(X, w_max)
        assert ([(k, type(c), c) for k, c in sorted(got.items())]
                == [(k, type(c), c) for k, c in sorted(want.items())])
    assert semidirect(X, 3).coaction == reference_coaction_split(X, 3)


def test_coaction_check_builds_no_bar_construction(x4, monkeypatch):
    """coaction-check reads Gamma off fiber_algebra: it builds no
    BarComplex, where semidirect builds one for the kernel's H^0."""
    def forbidden(*args):
        raise AssertionError("coaction-check built a bar construction")

    monkeypatch.setattr(BarComplex, "__init__", forbidden)
    assert coaction(x4, 4) == {("v", "t", "u"): F(1)}
    with pytest.raises(AssertionError, match="bar construction"):
        semidirect(x4, 4)


def test_delta_n0():
    X = AugmentedOverN(trivial_base(), make_e2())
    rep = delta_approximation(X, 0, 2)
    assert rep["dims"][0] == {0: 1, 1: 0, 2: 0}


def test_delta_e2_stabilizes():
    X = AugmentedOverN(trivial_base(), make_e2())
    rep = delta_approximation(X, 3, 2)
    assert rep["stable_n"] == 2
    assert rep["dims"][2][2] == 4
    assert not structure_failures(X.total)


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
    assert not structure_failures(A)


def test_delta_differential_is_exact():
    """The unit letter has odd suspended degree -1, so the face signs see
    negative exponents; every matrix entry must still be exact, an int or
    a Fraction (a float entry would make the elimination inexact)."""
    D = DeltaApprox(make_e3(), 3)
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("base, total", DELTA_CASES + [
    pytest.param(*case.values[:2], id=case.id) for case in ORACLE_CASES])
def test_delta_facts_hold_without_a_check(base, total, n):
    """The three facts about the complex of the simplex that the reading
    of delta-approx's tables off the bar complex rests on (README,
    "Simplicial approximation") hold, and delta-approx checks none of
    them, as none can fail: no face raises a column's top vertex, q
    killing the words with a unit letter is a chain map to the bar
    complex, and d^2 = 0 on the slices wherever the total is a cdga.  So
    delta-approx passes whenever it computes, as the CLI refuses a total
    that is not a cdga (structure_failures)."""
    X = AugmentedOverN(base(), total())
    da = DeltaApprox(fiber_algebra(X)[0], n)
    is_cdga = not structure_failures(X.total)
    assert delta_closure_failures(da, 3) == []
    assert delta_q_chain_failures(da, 3) == []
    if is_cdga:
        assert slice_d_squared_failures(da, range(-2, 2), range(4)) == []


def _broken_delta(d_basis):
    """DeltaApprox(E3, 3) with d_basis replaced, for the oracles of
    test_delta_facts_hold_without_a_check to catch."""
    return type("BrokenDelta", (DeltaApprox,), {"d_basis": d_basis})(
        make_e3(), 3)


def test_delta_bad_sign_fails_d_squared():
    def d_basis(self, S, word, deg):
        # flip the inner d faces of words that carry a unit letter
        out = DeltaApprox.d_basis(self, S, word, deg)
        if UNIT in word:
            out = {(S2, w2): -c if S2 == S else c
                   for (S2, w2), c in out.items()}
        return out

    assert slice_d_squared_failures(_broken_delta(d_basis),
                                    range(-2, 2), range(4))


def test_delta_dropped_unit_face_fails_q_chain():
    def d_basis(self, S, word, deg):
        # lose the front counit face
        out = DeltaApprox.d_basis(self, S, word, deg)
        if word and word[0] == UNIT:
            out.pop((S[1:], word[1:]), None)
        return out

    assert delta_q_chain_failures(_broken_delta(d_basis), 3)


def test_delta_face_leaving_its_simplex_fails_closure():
    def d_basis(self, S, word, deg):
        # shift the front counit face one vertex up, past the top of S
        out = DeltaApprox.d_basis(self, S, word, deg)
        face = (S[1:], word[1:])
        if face in out and S[-1] < self.n:
            out[(tuple(v + 1 for v in S[1:]), word[1:])] = out.pop(face)
        return out

    assert delta_closure_failures(_broken_delta(d_basis), 3)


def test_delta_inner_face_leaving_its_simplex_fails_closure():
    def d_basis(self, S, word, deg):
        # move the top vertex of the d faces of words [1|..] up one: the
        # front counit face (S[1:], ..) still has the largest position in
        # the column, so only a check of every face sees it
        out = DeltaApprox.d_basis(self, S, word, deg)
        if word[:1] == (UNIT,) and S[-1] < self.n:
            up = S[:-1] + (S[-1] + 1,)
            out = {(up if S2 == S else S2, w2): c
                   for (S2, w2), c in out.items()}
        return out

    assert delta_closure_failures(_broken_delta(d_basis), 3)


def test_delta_relative_base():
    X = AugmentedOverN(make_e1("t"), make_e4())
    rep = delta_approximation(X, 3, 3)
    # fiber bar dims of E4 over E1
    assert rep["full_dims"] == reference_truncated_h0(fiber_algebra(X)[0], 8, 3)
    assert rep["stable_n"] == 3
    assert not structure_failures(X.total)


def test_delta_reads_the_former_complex_tables():
    """Every report of delta_approximation, read off the bar complex's
    length filtration, equals that of the former program, which read the
    tables off the one DeltaApprox at n (reference_delta_approximation),
    on the cdga corpus at n <= 5 and w_max 3: the complex of the
    nn-simplex and the truncation at length nn have one H^0.  Where the
    input checks refuse a pair, both raise the same error."""
    computed = 0
    for X in _cdga_corpus():
        for n in range(6):
            got = _outcome(delta_approximation, X, n, 3)
            assert got == _outcome(reference_delta_approximation, X, n, 3), (
                X.total.name, n)
            computed += isinstance(got, dict)
    assert computed >= 1000


def test_delta_matches_reference_on_the_corpus():
    """The tables and stable_n equal reference_delta_dims, a separate
    complex for each simplex size with its own eliminations, on the cdga
    corpus at n <= 3 and w_max 3."""
    computed = 0
    for X in _cdga_corpus():
        rep = _outcome(delta_approximation, X, 3, 3)
        if not isinstance(rep, dict):
            continue
        Falg = fiber_algebra(X)[0]
        for n in range(4):
            rep = delta_approximation(X, n, 3)
            assert (rep["dims"], rep["stable_n"]) == reference_delta_dims(
                Falg, n, 3, rep["full_dims"]), (X.total.name, n)
        computed += 1
    assert computed >= 160


@pytest.mark.parametrize("k", range(2, 6))
def test_punctured_line_simplex_complex_has_one_class_per_word(k):
    """The lemma the length-truncation reading rests on, on the line minus
    k points: its letters are the k - 1 generators, of degree 1 and
    weight 1, with d and every product 0, so a weight-w word has w
    letters and each degree-0 word is a cocycle of the bar complex.  The
    complex of the n-simplex spreads such a word's letters over the faces
    with unit letters in the gaps, and has exactly one class for each
    word when w <= n and none when w > n: H^0_w = (k - 1)^w for w <= n,
    and no cohomology in any other degree or weight."""
    A = punctured_line_model(k)
    for n in range(5):
        da = DeltaApprox(A, n)
        for w in range(5):
            for deg in range(-n - 2, 2):
                want = (k - 1) ** w if deg == 0 and w <= n else 0
                assert da.cohomology(deg, w)[0] == want, (n, w, deg)


@pytest.mark.parametrize("base, total", DELTA_CASES + [
    pytest.param(trivial_base, lambda s=seed: random_free_cdga(s),
                 id=f"free{seed}") for seed in range(10)] + [
    pytest.param(lambda: make_e1("t"), lambda s=seed: random_gen_nilpotent(s),
                 id=f"gn{seed}") for seed in range(10)])
def test_delta_complex_and_length_truncation_agree_in_every_degree(
        base, total):
    """q, killing the words with a unit letter, is a quasi-isomorphism
    from the complex of the n-simplex to the bar complex truncated at
    length n (README, "Simplicial approximation"): the two have the same
    cohomology in every degree -2..1, at n <= 3 and w <= 3, not only in
    degree 0."""
    Falg = fiber_algebra(AugmentedOverN(base(), total()))[0]
    for n in range(4):
        da, trunc = DeltaApprox(Falg, n), TruncatedBar(Falg, n)
        for w in range(4):
            for deg in range(-2, 2):
                assert da.cohomology(deg, w)[0] == trunc.cohomology(
                    deg, w)[0], (n, w, deg)


def test_pi1_demo_rejects_one_puncture():
    with pytest.raises(RelativeError):
        pi1_demo(1, 3)


@pytest.mark.parametrize("k", range(2, 7))
def test_pi1_demo_lyndon(k):
    """H^0 of the line minus k points is the shuffle algebra on k - 1
    letters, (k - 1)^w in weight w, free on gamma, whose dims are Witt's
    Lyndon-word counts.  pi1-demo reads H^0 by rank and gamma by the
    inverse Euler transform of H^0's dims, so this checks H^0 and the
    transform; test_bar's test_gamma_of_the_punctured_line_is_witt checks
    the decomposables echelon.  pi1-demo reports pass without checking
    these, since no k it accepts can fail them."""
    rep = pi1_demo(k, 4)
    for w in range(1, 5):
        assert rep["gamma_dims"][w] == lyndon_count(k - 1, w), (k, w)
    assert rep["h0_dims"] == {w: (k - 1) ** w for w in range(5)}
    assert rep["polynomial_dims"] == rep["h0_dims"]
    assert "mock" in rep["note"]


@pytest.mark.parametrize("k, w_max", [
    (k, w) for k in range(2, 7) for w in range(6)] + [(40, 2)])
def test_pi1_demo_matches_the_echelon(k, w_max):
    """The dims pi1_demo reads off ranks and the inverse Euler transform
    are the ones it read, before, off h0_hopf and gamma's decomposables
    echelon."""
    rep = pi1_demo(k, w_max)
    A = punctured_line_model(k)
    assert rep["h0_dims"] == h0_hopf(A, w_max).dims()
    assert rep["gamma_dims"] == gamma(A, w_max).dims()
    assert rep["polynomial_dims"] == rep["h0_dims"]


def test_pi1_demo_builds_no_hopf_classes(monkeypatch):
    """pi1-demo reads H^0's dims by rank: it builds no HopfPresentation
    and no CoLiePresentation, and reads no product or coproduct."""
    calls = []

    def record(cls, name):
        method = getattr(cls, name)

        def recorded(self, *args):
            calls.append((cls.__name__, name))
            return method(self, *args)

        monkeypatch.setattr(cls, name, recorded)

    for cls in (HopfPresentation, CoLiePresentation):
        record(cls, "__init__")
    record(HopfPresentation, "product_of")
    record(HopfPresentation, "coproduct_of")
    pi1_demo(4, 4)
    assert calls == []
    h0_hopf(punctured_line_model(3), 2)  # the recorder sees a build
    assert calls == [("HopfPresentation", "__init__")]


def test_pi1_demo_fixed_tables():
    assert list(pi1_demo(2, 4)["gamma_dims"].values()) == [1, 0, 0, 0]
    assert list(pi1_demo(3, 4)["gamma_dims"].values()) == [2, 1, 2, 3]
    assert list(pi1_demo(4, 4)["gamma_dims"].values()) == [3, 3, 8, 18]


def test_punctured_line_model_products_vanish():
    A = punctured_line_model(4)
    assert A.multiply(el_gen("a0"), el_gen("a1")) == {}
