import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adamsbar import bar as bar_module, linalg
from adamsbar.bar import (
    BarComplex,
    CoLiePresentation,
    HopfPresentation,
    gamma,
    h0_hopf,
    polynomial_dims,
)
from adamsbar.cdga import UNIT, CdgaPresentation, GeneratorSpec, el_gen
from adamsbar.relative import punctured_line_model
from corpus import (
    make_e1, make_e2, make_e3, make_e4, make_e4p, random_free_cdga,
    random_gen_nilpotent)
import hopf_checks
import reference
from reference import word_bidegree

F = Fraction

X = (("x", 1),)


def make_even_letters():
    """Free on e (2,1), f (2,2), x (1,1) with df = x*e: exercises signs."""
    gens = [GeneratorSpec("e", 2, 1), GeneratorSpec("f", 2, 2), GeneratorSpec("x", 1, 1)]
    return CdgaPresentation("EV", gens, differential={
        "f": {(("e", 1), ("x", 1)): 1}})


def test_slices(e1, e2, e3):
    b1 = BarComplex(e1)
    assert b1.slice(0, 3) == [(X, X, X)]
    b2 = BarComplex(e2)
    assert len(b2.slice(0, 2)) == 4
    b3 = BarComplex(e3)
    assert len(b3.slice(0, 2)) == 5  # four length-2 words plus [z]


def test_bar_d_examples(e1, e2, e3):
    b3 = BarComplex(e3)
    z = ((("z", 1),),)
    dz = b3.d_word(z)
    assert list(dz) == [((("x", 1), ("y", 1)),)]
    b2 = BarComplex(e2)
    assert b2.d_word(((("x0", 1),), (("x1", 1),))) == {}
    b1 = BarComplex(e1)
    assert b1.d_word((X, X)) == {}


@pytest.mark.parametrize(
    "mk", [make_e1, make_e2, make_e3, make_e4, make_e4p, make_even_letters]
)
def test_bar_d_squared_fixtures(mk):
    A = mk()
    bar = BarComplex(A)
    for w in range(0, 5):
        for n in range(-2, 4):
            for word in bar.slice(n, w):
                assert bar.d_lin(bar.d_word(word)) == {}, word


@pytest.mark.parametrize("seed", range(8))
def test_bar_d_squared_random(seed):
    A = random_free_cdga(seed)
    bar = BarComplex(A)
    for w in range(0, 4):
        for n in range(-2, 4):
            for word in bar.slice(n, w):
                assert bar.d_lin(bar.d_word(word)) == {}, (seed, word)


def test_shuffle_examples(e1, e2):
    b2 = BarComplex(e2)
    x0, x1 = (("x0", 1),), (("x1", 1),)
    assert b2.shuffle_words((x0,), (x1,)) == {(x0, x1): F(1), (x1, x0): F(1)}
    b1 = BarComplex(e1)
    assert b1.shuffle_words((X,), (X,)) == {(X, X): F(2)}
    assert b1.shuffle_words((), (X,)) == {(X,): F(1)}


def make_signed_letters():
    """Free on a (0,1), b (2,1) and c (-1,1): letters of suspended degree
    -1, 1 and -2, odd and negative, which no punctured line has."""
    gens = [GeneratorSpec("a", 0, 1), GeneratorSpec("b", 2, 1),
            GeneratorSpec("c", -1, 1)]
    return CdgaPresentation("SG", gens)


def test_shuffle_words_match_reference():
    """The shuffle of every pair of words of up to 6 letters in all over
    letters of ebar -1, 1 and -2 equals the reference's, term order
    included: the interleavings come in combinations order of u's
    positions."""
    A = make_signed_letters()
    bar = BarComplex(A)
    letters = [((g.name, 1),) for g in A.generators]
    words = [w for n in range(7) for w in itertools.product(letters, repeat=n)]
    for u in words:
        for v in words:
            if len(u) + len(v) <= 6:
                assert list(bar.shuffle_words(u, v).items()) == list(
                    reference.reference_shuffle_words(A, u, v).items()), (u, v)


def test_shuffle_leibniz_even_letters():
    A = make_even_letters()
    bar = BarComplex(A)
    words = []
    for w in range(0, 4):
        for n in range(-1, 4):
            words.extend(bar.slice(n, w))
    for u in words:
        for v in words:
            if word_bidegree(A, u)[1] + word_bidegree(A, v)[1] > 4:
                continue
            lhs = bar.d_lin(bar.shuffle_words(u, v))
            rhs = bar.shuffle_lin(bar.d_word(u), {v: F(1)})
            du = word_bidegree(A, u)[0]
            for w2, c in bar.shuffle_lin({u: F(1)}, bar.d_word(v)).items():
                y = rhs.get(w2, F(0)) + c * (-1) ** du
                if y:
                    rhs[w2] = y
                else:
                    rhs.pop(w2, None)
            assert lhs == rhs, (u, v)


def test_shuffle_assoc_comm_even_letters():
    A = make_even_letters()
    bar = BarComplex(A)
    words = []
    for w in range(1, 3):
        for n in range(0, 4):
            words.extend(bar.slice(n, w))
    for u in words:
        for v in words:
            if word_bidegree(A, u)[1] + word_bidegree(A, v)[1] > 4:
                continue
            du = word_bidegree(A, u)[0]
            dv = word_bidegree(A, v)[0]
            uv = bar.shuffle_words(u, v)
            vu = bar.shuffle_words(v, u)
            sign = (-1) ** (du * dv)
            assert uv == {k: sign * c for k, c in vu.items()}, (u, v)
            for t in words[:6]:
                if (
                    word_bidegree(A, u)[1]
                    + word_bidegree(A, v)[1]
                    + word_bidegree(A, t)[1]
                    > 4
                ):
                    continue
                lhs = bar.shuffle_lin(uv, {t: F(1)})
                rhs = bar.shuffle_lin({u: F(1)}, bar.shuffle_words(v, t))
                assert lhs == rhs, (u, v, t)


def test_coprod_antipode_words(e2):
    bar = BarComplex(e2)
    x0, x1 = (("x0", 1),), (("x1", 1),)
    assert bar.coprod_word((x0,)) == [((), (x0,)), ((x0,), ())]
    assert bar.coprod_word((x0, x1)) == [
        ((), (x0, x1)),
        ((x0,), (x1,)),
        ((x0, x1), ()),
    ]
    antipode = hopf_checks.antipode_word
    assert antipode(bar, (x0,)) == {(x0,): F(-1)}
    assert antipode(bar, (x0, x1)) == {(x1, x0): F(1)}
    assert antipode(bar, ()) == {(): F(1)}


def test_antipode_axiom_can_fail(e2):
    """The antipode of a nonempty word with the opposite sign breaks the
    axiom on E2 at the first class of weight 1, so the check can fail."""
    h = h0_hopf(e2, 3)
    assert hopf_checks.antipode_axiom(h) == (True, None)

    def flipped(bar, word):
        return {nw: -c if word else c for nw, c in
                hopf_checks.antipode_word(bar, word).items()}

    assert hopf_checks.antipode_axiom(h, flipped) == (False, (1, 0))


def test_h0_dims(e1, e2, e3):
    h1 = h0_hopf(e1, 4)
    assert h1.dims() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    h2 = h0_hopf(e2, 4)
    assert h2.dims() == {w: 2 ** w for w in range(5)}
    h3 = h0_hopf(e3, 3)
    assert h3.dims()[2] == 4


def test_dims_build_no_table(e3):
    """dims() reads the bar complex's H^0 only, and the co-Lie quotient
    keeps no structure constant in the Hopf presentation: it caches only
    the representatives."""
    h = h0_hopf(e3, 4)
    fields = {"A", "w_max", "bar", "_reps"}
    assert h.dims() == {0: 1, 1: 2, 2: 4, 3: 6, 4: 9}
    assert set(vars(h)) == fields
    CoLiePresentation(h)
    assert set(vars(h)) == fields


def test_colie_retains_little_memory():
    """The co-Lie quotient of the line minus 4 points at w <= 5 keeps
    about 290 KB; a stored table of every product comes to about 1.1 MB."""
    h = h0_hopf(punctured_line_model(4), 5)
    tracemalloc.start()
    try:
        g = CoLiePresentation(h)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.dims() == {1: 3, 2: 3, 3: 8, 4: 18, 5: 48}
    assert retained < 600_000, retained


def test_e1_power_is_factorial():
    e1 = make_e1()
    h = h0_hopf(e1, 4)
    bar = h.bar
    x_rep = {(X,): F(1)}
    power = {(): F(1)}
    for w in range(1, 5):
        power = bar.shuffle_lin(power, x_rep)
        assert power == {tuple([X] * w): F(math.factorial(w))}


@pytest.mark.parametrize("mk", [make_e1, make_e2, make_e3, make_e4, make_e4p])
def test_hopf_axioms(mk):
    h = h0_hopf(mk(), 4)
    ok, wit = hopf_checks.all_axioms(h)
    assert ok, wit


def test_hopf_axioms_even_letters():
    h = h0_hopf(make_even_letters(), 4)
    ok, wit = hopf_checks.all_axioms(h)
    assert ok, wit


def random_formal_table(seed):
    """A table algebra on 2-3 degree-1 letters of random weights 1-3 with
    all products zero, like the formal models of the bench workloads."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    return CdgaPresentation(f"F{seed}", [
        GeneratorSpec(f"g{i}", 1, wt, table=True)
        for i, wt in enumerate(weights)])


HOPF_CASES = [
    pytest.param(mk, 4, id=mk.__name__)
    for mk in (make_e1, make_e2, make_e3, make_e4, make_e4p,
               make_even_letters)
] + [
    pytest.param(lambda k=k: punctured_line_model(k), 4, id=f"P1minus{k}")
    for k in (3, 4, 5)
] + [
    pytest.param(lambda seed=seed: random_formal_table(seed), 4,
                 id=f"formal{seed}")
    for seed in range(6)
]


@pytest.mark.parametrize("mk,w_max", HOPF_CASES)
def test_hopf_constants_match_reference(mk, w_max):
    """product_of on every ordered pair, the unit included, and the
    coproduct with its grouplike terms set directly, equal the constants
    the reference classifies over every ordered pair and every split, key
    order included; the Hopf axioms hold on both."""
    h = h0_hopf(mk(), w_max)
    ref = reference.reference_hopf(h)
    got, want = hopf_checks.tables(h), hopf_checks.tables(ref)
    for table, ref_table in zip(got, want):
        assert table.keys() == ref_table.keys()
        for key, val in ref_table.items():
            assert list(table[key].items()) == list(val.items()), key
    for hopf, t in ((h, got), (ref, want)):
        ok, wit = hopf_checks.all_axioms(hopf, t)
        assert ok, wit


# the reference cases, plus E2 at w = 6, where the products of
# unordered pairs are dependent
@pytest.mark.parametrize("mk,w_max", HOPF_CASES + [
    pytest.param(make_e3, 5, id="make_e3-w5"),
    pytest.param(lambda: punctured_line_model(3), 5, id="P1minus3-w5"),
    pytest.param(make_e2, 6, id="make_e2-w6")])
def test_colie_matches_reference(mk, w_max):
    """The co-Lie quotient read off one echelon of the generators times
    the classes has the basis, weights, projection of every class and cobracket
    (key order included) of the reference's ordered products, echelon
    basis, non-pivot reps and separate projector."""
    h = h0_hopf(mk(), w_max)
    g, ref = CoLiePresentation(h), reference.reference_colie(h)
    assert [(w, {j: F(1)}) for w, j in g.basis] == ref.basis
    assert g.by_weight == ref.by_weight
    for w in range(1, w_max + 1):
        for k in range(h.dims()[w]):
            got = g.project({k: F(1)}, w)
            assert list(got.items()) == list(ref.project({k: F(1)}, w).items())
    assert g.cobracket.keys() == ref.cobracket.keys()
    for key, val in ref.cobracket.items():
        assert list(g.cobracket[key].items()) == list(val.items()), key


def make_negative_degree():
    """Free on u (-1, 1) and x (1, 1)."""
    return CdgaPresentation("NEG", [GeneratorSpec("u", -1, 1),
                                    GeneratorSpec("x", 1, 1)])


def make_e3_half():
    """E3 with d z = 1/2 x*y: Fraction coefficients in d."""
    A = make_e3()
    return CdgaPresentation("E3h", A.generators, differential={
        "z": {(("x", 1), ("y", 1)): F(1, 2)}})


def make_e3_contractible():
    """E3 plus a contractible pair: a (0, 1) with d a = b (1, 1).  It has
    E3's cohomology, and its H^0 pieces of weight >= 1 are the degree-0
    cocycles modulo the image of the degree -1 words, so they are
    classified after an elimination."""
    A = make_e3()
    return CdgaPresentation("E3c", [
        GeneratorSpec("a", 0, 1), GeneratorSpec("b", 1, 1), *A.generators],
        differential={"a": {(("b", 1),): 1}, **A.differential})


def make_table_with_products():
    """A table algebra with a mul line: x * y = p in the table, with a
    free z of weight 2 beside it."""
    return CdgaPresentation("TM", [
        GeneratorSpec("x", 1, 1, True), GeneratorSpec("y", 1, 1, True),
        GeneratorSpec("p", 2, 2, True), GeneratorSpec("z", 1, 2)],
        products={("x", "y"): {(("p", 1),): 1}})


@pytest.mark.parametrize("mk", [
    make_signed_letters, make_e3, make_table_with_products,
    make_e3_contractible],
    ids=["signed", "make_e3", "table_with_products", "degree0_generator"])
def test_bar_words_match_reference(mk):
    """by_degree(w), each word a first letter before a word of the
    remaining weight, equals every word listed, grouped by its degree
    and sorted: the same groups and the same lists, in order."""
    bar = BarComplex(mk())
    for w in range(6):
        assert bar.by_degree(w) == reference.reference_bar_words(bar, w), w


ALL_PAIRS_CASES = [
    pytest.param(mk, 5, id=mk.__name__)
    for mk in (make_e1, make_e2, make_e3, make_e4, make_e4p)
] + [
    pytest.param(mk, 5, id=mk.__name__)
    for mk in (make_e3_half, make_e3_contractible)
] + [
    pytest.param(lambda seed=seed: random_formal_table(seed), 5,
                 id=f"formal{seed}")
    for seed in range(6)
] + [
    pytest.param(lambda k=k: punctured_line_model(k), w_max,
                 id=f"P1minus{k}-w{w_max}")
    for k in (3, 4, 5) for w_max in range(1, 6)
]


@pytest.mark.parametrize("mk,w_max", ALL_PAIRS_CASES)
def test_colie_matches_all_pairs(mk, w_max):
    """The decomposables spanned by the generators times the classes
    are those spanned by every unordered pair of classes: the basis,
    the weights, the projection of every class and the cobracket (key
    order included) equal the all-pairs construction's."""
    h = h0_hopf(mk(), w_max)
    g, ref = CoLiePresentation(h), reference.AllPairsCoLie(h)
    assert g.basis == ref.basis
    assert g.by_weight == ref.by_weight
    for w in range(1, w_max + 1):
        for k in range(h.dims()[w]):
            got = g.project({k: F(1)}, w)
            assert list(got.items()) == list(ref.project({k: F(1)}, w).items())
    assert g.cobracket.keys() == ref.cobracket.keys()
    for key, val in ref.cobracket.items():
        assert list(g.cobracket[key].items()) == list(val.items()), key


def test_colie_products_are_generators_times_classes(monkeypatch):
    """At the line minus 4 points, w <= 5, gamma makes one product per
    generator of weight w1 <= w/2 and class of weight w - w1, less one of
    the two orders of each pair of distinct generators of weight w/2: 462
    products, where every lower weight w1 took 510 and the unordered
    pairs of classes take 645."""
    calls = []
    product_of = HopfPresentation.product_of

    def counted(self, *key):
        calls.append(key)
        return product_of(self, *key)

    h = h0_hopf(punctured_line_model(4), 5)
    monkeypatch.setattr(HopfPresentation, "product_of", counted)
    g = CoLiePresentation(h)
    gens, dims = g.dims(), h.dims()
    spanning = sum(gens[w1] * dims[w - w1]
                   for w in range(2, 6) for w1 in range(1, w // 2 + 1))
    skipped = sum(1 for (p, _), (q, _) in itertools.combinations(g.basis, 2)
                  if p == q and p + q <= 5)
    assert spanning - skipped == 462
    assert len(calls) == len(set(calls)) == spanning - skipped
    assert reference.AllPairsCoLie(h).products == 645

def test_signs_exact_at_negative_degrees():
    """A generator of degree -1 makes the Koszul and bar signs meet
    negative exponents; products and bar differentials must stay exact,
    ints or Fractions (a float would make the elimination inexact)."""
    A = make_negative_degree()
    for a in ("u", "x"):
        for b in ("u", "x"):
            for c in A.multiply(el_gen(a), el_gen(b)).values():
                assert type(c) in (int, F), (a, b, c)
    bar = BarComplex(A)
    for w in range(1, 4):
        for n in range(-2 * w, 1):
            for col in bar.d_columns(n, w):
                for c in col.values():
                    assert type(c) in (int, F), (n, w, c)


FACE_CASES = [
    pytest.param(mk, id=mk.__name__)
    for mk in (make_e1, make_e2, make_e3, make_e3_half, make_e3_contractible,
               make_e4, make_e4p, make_negative_degree)
] + [
    pytest.param(lambda: random_formal_table(3), id="formal3"),
    pytest.param(lambda: punctured_line_model(4), id="P1minus4"),
]


def face_words(bar, w_max=4):
    """Every word of weight <= w_max, and the words of up to two letters
    with the unit letter put in at each position."""
    words = [w for r in range(w_max + 1) for ws in bar.by_degree(r).values()
             for w in ws]
    return words + [w[:i] + (UNIT,) + w[i:] for w in words if len(w) <= 2
                    for i in range(len(w) + 1)]


@pytest.mark.parametrize("mk", FACE_CASES)
def test_faces_match_reference(mk):
    """faces, read off the algebra's memoized d and products, gives the
    terms of the apply_d/multiply construction: the same values, each an
    int or a Fraction as there, in the same list order."""
    bar = BarComplex(mk())
    for word in face_words(bar):
        got = [(i, k, nw, type(c), c) for i, k, nw, c in bar.faces(word)]
        want = [(i, k, nw, type(c), c)
                for i, k, nw, c in reference.reference_faces(bar, word)]
        assert got == want, word


def test_faces_call_neither_apply_d_nor_multiply(monkeypatch):
    """Once the memos hold a word's letters and pairs, faces reads them
    and builds no one-term element for apply_d or multiply."""
    bar = BarComplex(make_e4p())
    words = face_words(bar)
    for word in words:
        bar.faces(word)
    calls = []
    for name in ("apply_d", "multiply"):
        original = getattr(CdgaPresentation, name)

        def counted(self, *args, name=name, original=original):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(CdgaPresentation, name, counted)
    for word in words:
        bar.faces(word)
    assert not calls


SIGNED = make_signed_letters()
SIGNED_WORDS = [w for n in range(4) for w in itertools.product(
    [((g.name, 1),) for g in SIGNED.generators], repeat=n)]
coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-5, 5), st.integers(1, 4)),
).filter(bool)
combinations = st.dictionaries(st.sampled_from(SIGNED_WORDS), coefficients,
                               max_size=4)


@given(combinations, combinations)
def test_shuffle_lin_matches_reference_sum(a, b):
    """shuffle_lin of int and Fraction combinations is the sum of
    cu * cv * reference_shuffle_words(u, v) over the pairs of words, with
    no 0 stored; over ints it stays in ints."""
    want = {}
    for u, cu in a.items():
        for v, cv in b.items():
            shuffled = reference.reference_shuffle_words(SIGNED, u, v)
            for w, c in shuffled.items():
                reference._wadd(want, w, cu * cv * c)
    got = BarComplex(SIGNED).shuffle_lin(a, b)
    assert got == want
    assert all(got.values())
    if all(type(c) is int for c in (*a.values(), *b.values())):
        assert all(type(c) is int for c in got.values())


def test_shuffle_lin_fills_one_dict(monkeypatch):
    """Every word pair of a shuffle_lin call is shuffled straight into
    the one dict it returns, with no dict of its own."""
    bar = BarComplex(SIGNED)
    a = {w: F(i + 1, 2) for i, w in enumerate(SIGNED_WORDS[1:8])}
    b = {w: i - 3 for i, w in enumerate(SIGNED_WORDS[3:10])}
    targets = []
    wadd = bar_module._wadd

    def record(out, w, c):
        targets.append(id(out))
        wadd(out, w, c)

    monkeypatch.setattr(bar_module, "_wadd", record)
    result = bar.shuffle_lin(a, b)
    assert targets and set(targets) == {id(result)}


def test_cobracket_projects_each_class_once(e3, monkeypatch):
    """The cobracket projects each H^0 basis class (w, i) onto gamma once,
    however many coproduct terms read it."""
    projected = []
    project = CoLiePresentation.project

    def counted(self, class_vec, w):
        projected.append((w, tuple(class_vec.items())))
        return project(self, class_vec, w)

    monkeypatch.setattr(CoLiePresentation, "project", counted)
    for A, w_max in ((e3, 6), (punctured_line_model(4), 4)):
        projected.clear()
        gamma(A, w_max).cobracket
        assert projected
        assert len(projected) == len(set(projected)), A.name


@pytest.mark.parametrize("mk, kind", [
    (make_e3, linalg.KernelCoords),
    (make_e3_contractible, linalg.Echelon),
], ids=["KernelCoords", "Echelon"])
def test_classify_raises_outside_the_span(mk, kind):
    """classify raises ValueError on a combination outside the span of the
    cocycles, whichever kind of projector reads its weight; the projector
    itself answers None."""
    h = h0_hopf(mk(), 2)
    projector = h.bar.cohomology(0, 2)[2]
    assert type(projector) is kind
    lin = {((("z", 1),),): 1}  # d [z] = [x*y], not 0
    assert projector.class_coords(h.bar.vector(lin, 0, 2)) is None
    with pytest.raises(ValueError) as exc:
        h.classify(lin, 2)
    assert str(exc.value) == "vector outside the span of reps + image"


def test_colie_basis_is_weight_and_class(e3):
    """Each gamma generator is (w, j): class j of weight w, a non-pivot
    column of the decomposables echelon."""
    g = gamma(e3, 4)
    assert g.basis == [(1, 0), (1, 1), (2, 3)]
    assert all(type(j) is int for _, j in g.basis)


def test_wedge_add_writes_the_exterior_square():
    """c (e_a wedge e_b) adds c at (a, b) for a < b and -c at (b, a) for
    b < a, keeps each value's type, leaves e_a wedge e_a out and keeps an
    entry that sums to 0."""
    out = {}
    bar_module._wedge_add(out, 0, 2, F(1, 2))
    bar_module._wedge_add(out, 3, 1, 2)
    bar_module._wedge_add(out, 4, 4, 5)
    assert [(k, type(c), c) for k, c in out.items()] == [
        ((0, 2), F, F(1, 2)), ((1, 3), int, -2)]
    bar_module._wedge_add(out, 2, 0, F(1, 2))
    assert out == {(0, 2): 0, (1, 3): -2}


def test_contractible_pair_keeps_gamma():
    """A contractible pair changes neither H^0 nor gamma: E3 with one has
    E3's dims and cobracket, read through an elimination per weight where
    E3 needs none."""
    h = h0_hopf(make_e3_contractible(), 5)
    assert all(type(h.bar.cohomology(0, w)[2]) is linalg.Echelon
               for w in range(1, 6))
    g, ref = CoLiePresentation(h), gamma(make_e3(), 5)
    assert h.dims() == ref.hopf.dims()
    assert g.dims() == ref.dims()
    assert g.cobracket == ref.cobracket


@pytest.mark.parametrize("mk", [
    make_e2, make_e3, make_e3_half, make_e3_contractible,
    lambda: punctured_line_model(4), lambda: random_formal_table(3)])
def test_cobracket_and_projection_are_fractions(mk):
    """Every value the cobracket and project hand out is a Fraction,
    whatever the arithmetic inside."""
    g = gamma(mk(), 4)
    for cb in g.cobracket.values():
        assert all(type(c) is F for c in cb.values()), cb
    for w in range(1, 5):
        for k in range(g.hopf.dims()[w]):
            for vec in ({k: F(1)}, {k: 1}):
                assert all(type(c) is F for c in g.project(vec, w).values())


def test_punctured_line_constants_stay_ints():
    """No H^0 slice of the punctured line has an incoming d, so every
    class is read off a KernelCoords: the products and coproducts of its
    integral representatives are ints, with no Fraction made."""
    h = h0_hopf(punctured_line_model(4), 4)
    product, coproduct = hopf_checks.tables(h)
    values = [c for table in (product, coproduct) for vec in table.values()
              for c in vec.values()]
    assert values and all(type(c) is int for c in values)


def test_gamma_dims_vs_oracles(e1, e2):
    g1 = gamma(e1, 4)
    assert g1.dims() == {1: 1, 2: 0, 3: 0, 4: 0}
    g2 = gamma(e2, 4)
    expected = {w: reference.brute_force_gamma_dim(2, w) for w in range(1, 5)}
    assert g2.dims() == expected
    assert expected == {w: reference.lyndon_count(2, w) for w in range(1, 5)}
    assert g2.dims() == {1: 2, 2: 1, 3: 2, 4: 3}


def test_gamma_e3_cobracket(e3):
    g = gamma(e3, 2)
    assert g.dims() == {1: 2, 2: 1}
    # the weight-2 generator's cobracket is a nonzero multiple of the
    # wedge of the two weight-1 generators
    (gidx,) = g.by_weight[2]
    cb = g.cobracket[gidx]
    a, b = g.by_weight[1]
    assert set(cb) == {(a, b)}
    assert cb[(a, b)] != 0


def test_cobracket_builds_only_the_generator_coproducts(e3, monkeypatch):
    """The cobracket builds the coproduct of each gamma generator's class
    exactly once, and of no other class."""
    built = []
    coproduct_of = HopfPresentation.coproduct_of

    def counted(self, w, k):
        built.append((w, k))
        return coproduct_of(self, w, k)

    monkeypatch.setattr(HopfPresentation, "coproduct_of", counted)
    g = gamma(e3, 6)
    g.cobracket
    g.cobracket
    assert sorted(built) == sorted(g.basis)
    assert len(built) < sum(g.hopf.dims().values())
    hopf, ref = g.hopf, reference.reference_hopf(g.hopf)
    for w, dim in hopf.dims().items():
        for k in range(dim):
            assert list(hopf.coproduct_of(w, k).items()) == list(
                ref.coproduct_of(w, k).items()), (w, k)


@pytest.mark.parametrize("mk", [make_e2, make_e3, make_e4p])
def test_co_jacobi(mk):
    g = gamma(mk(), 4)
    ok, wit = hopf_checks.co_jacobi(g)
    assert ok, wit


def make_f113():
    """The table algebra on degree-1 letters of weights 1, 1 and 3 with
    all products zero (the f113 golden)."""
    return CdgaPresentation("F113", [
        GeneratorSpec("a", 1, 1, True), GeneratorSpec("b", 1, 1, True),
        GeneratorSpec("c", 1, 3, True)])


POLYNOMIALITY_CASES = [
    pytest.param(mk, id=mk.__name__)
    for mk in (make_e1, make_e2, make_e3, make_e4, make_e4p, make_e3_half,
               make_f113)
] + [
    pytest.param(lambda k=k: punctured_line_model(k), id=f"P1minus{k}")
    for k in range(2, 7)
] + [
    pytest.param(lambda seed=seed: random_free_cdga(seed), id=f"R{seed}")
    for seed in range(4)
] + [
    pytest.param(lambda seed=seed: random_gen_nilpotent(seed), id=f"GN{seed}")
    for seed in range(4)
]


@pytest.mark.parametrize("mk", POLYNOMIALITY_CASES)
def test_polynomiality(mk):
    """H^0 is a commutative connected Hopf algebra over Q, so it is free on
    gamma (Leray; Milnor-Moore): its dims are those of the polynomial
    algebra on gamma.  colie reports pass without checking it, since no
    input can fail it.  pi1-demo relies on it: it reads H^0 by rank and
    gamma by the inverse Euler transform of H^0's dims, so its
    polynomial_dims equals h0_dims by construction; here gamma is the
    decomposables echelon's."""
    A = mk()
    h = h0_hopf(A, 4)
    g = CoLiePresentation(h)
    assert polynomial_dims(g.dims(), 4) == h.dims()



def inverse_euler(h_dims, w_max):
    """{w: gamma_w}, 1 <= w <= w_max, of the polynomial algebra with
    dims h_dims: gamma_w = h_w - [t^w] prod_{v<w} (1 - t^v)^(-gamma_v)."""
    g = {}
    for w in range(1, w_max + 1):
        g[w] = h_dims[w] - polynomial_dims(g, w)[w]
    return g


@pytest.mark.parametrize("mk", POLYNOMIALITY_CASES)
def test_dynkin_trace_counts_gamma(mk):
    """trace(S * Y on H^0_w) / w, read with no decomposables echelon, is
    dim gamma_w of the echelon and of the inverse Euler transform of H^0's
    dims: the theorem pi1-demo reads gamma by, beyond the punctured
    lines."""
    h = h0_hopf(mk(), 4)
    got = reference.dynkin_gamma_dims(h)
    assert got == CoLiePresentation(h).dims() == inverse_euler(h.dims(), 4)


@pytest.mark.parametrize("k", range(2, 7))
def test_gamma_of_the_punctured_line_is_witt(k):
    """The decomposables echelon of the line minus k points counts the
    Lyndon words on k - 1 letters, the gamma dims pi1-demo now reads off
    H^0's instead; test_gamma_generators_by_letter_content_follow_witt
    checks the same echelon per letter content."""
    dims = gamma(punctured_line_model(k), 5).dims()
    assert dims == {w: reference.lyndon_count(k - 1, w) for w in range(1, 6)}

def truncated_h0(A, m, w_max):
    """{w: dim H^0} of the truncation at word length m, read off the one
    bar complex of A."""
    return BarComplex(A).filtered_h0(len, [m], range(w_max + 1))[m]


def test_truncated_h0_stabilizes(e2, e3):
    full2 = h0_hopf(e2, 3).dims()
    assert truncated_h0(e2, 1, 2) == {0: 1, 1: 2, 2: 0}
    for m in range(2, 5):
        got = truncated_h0(e2, m, 3)
        for w in range(0, min(m, 3) + 1):
            assert got[w] == full2[w]
    # E3: length-1 words in weight 2 are just [z], not closed
    assert truncated_h0(e3, 1, 2)[2] == 0
    assert truncated_h0(e3, 2, 2)[2] == 4


def test_truncated_m0(e2):
    assert truncated_h0(e2, 0, 2) == {0: 1, 1: 0, 2: 0}


TRUNCATION_CASES = [
    pytest.param(mk, id=mk.__name__)
    for mk in (make_e1, make_e2, make_e3, make_e4, make_e4p)
] + [
    pytest.param(lambda k=k: punctured_line_model(k), id=f"P1minus{k}")
    for k in (3, 4, 5)
] + [
    pytest.param(lambda seed=seed: random_free_cdga(seed), id=f"R{seed}")
    for seed in range(4)
] + [
    pytest.param(lambda seed=seed: random_gen_nilpotent(seed), id=f"GN{seed}")
    for seed in range(4)
]


@pytest.mark.parametrize("mk", TRUNCATION_CASES)
def test_filtered_h0_matches_reference(mk):
    """The H^0 dims of every word-length truncation m <= w_max + 1, read
    off one bar complex level by level, equal a separate complex per m.
    A weight-w word has at most w letters, so at m >= w the truncation is
    the whole complex and its dim is H^0's, which is why bar-h0 reads its
    table off the truncation at w_max."""
    A = mk()
    w_max = 4
    got = BarComplex(A).filtered_h0(len, range(w_max + 2), range(w_max + 1))
    for m in range(w_max + 2):
        assert got[m] == reference.reference_truncated_h0(A, m, w_max), m
    full = h0_hopf(A, w_max).dims()
    for m in range(w_max + 2):
        for w in range(min(m, w_max) + 1):
            assert got[m][w] == full[w], (m, w)


@pytest.mark.parametrize("k", range(2, 7))
def test_gamma_generators_by_letter_content_follow_witt(k):
    """Each gamma generator of the punctured line is a class of words of
    one letter content, and the number of generators of content alpha is
    the dimension of the free Lie algebra in multidegree alpha, at every
    weight up to 5.  It fails where a generator is chosen in the wrong
    content, which the total count per weight does not see."""
    gam = gamma(punctured_line_model(k), 5)
    assert reference.gamma_by_content(gam) == reference.witt_content_dims(k, 5)


CE_CASES = [
    pytest.param(lambda: punctured_line_model(3), 6, id="P1minus3-w6"),
    pytest.param(lambda: punctured_line_model(4), 5, id="P1minus4-w5"),
] + [pytest.param(mk, 5, id=mk.__name__)
     for mk in (make_e2, make_e3, make_e4, make_e4p)]


def ce_matches(A, g, w_max):
    """Whether Lambda(gamma) with the cobracket has A's H^1 and an H^2
    inside A's at every weight up to w_max, as the 1-minimal model
    must."""
    h1, h2 = reference.ce_dims(g, w_max)
    a2 = reference.cdga_h_dims(A, 2, w_max)
    return h1 == reference.cdga_h_dims(A, 1, w_max) and all(
        h2[w] is not None and h2[w] <= a2[w] for w in h2)


@pytest.mark.parametrize("mk, w_max", CE_CASES)
def test_cobracket_gives_the_cohomology_of_a(mk, w_max):
    """The Chevalley-Eilenberg complex of gamma is the 1-minimal model of
    A: the same H^1, and an H^2 that injects into A's, weight by
    weight."""
    A = mk()
    assert ce_matches(A, gamma(A, w_max), w_max)


def test_ce_oracle_fails_on_a_zero_cobracket():
    A = punctured_line_model(4)
    g = gamma(A, 5)
    g.cobracket = {k: {} for k in g.cobracket}
    assert not ce_matches(A, g, 5)


def test_ce_oracle_fails_on_one_flipped_weight3_entry():
    """A sign flip in one entry of a weight-3 generator keeps co-Jacobi at
    weight 3 but breaks d^2 = 0 on Lambda(gamma) at weight 5."""
    A = punctured_line_model(4)
    g = gamma(A, 5)
    cb = {k: dict(v) for k, v in g.cobracket.items()}
    row = cb[g.by_weight[3][0]]
    key = next(iter(row))
    row[key] = -row[key]
    g.cobracket = cb
    assert not ce_matches(A, g, 5)
