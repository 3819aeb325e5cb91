import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adamsbar import linalg, minimal
from adamsbar.cdga import (CdgaPresentation, GeneratorSpec, bidegree_failures,
                           structure_failures)
from adamsbar.cellmod import FiltrationError, _strict_filtration
from adamsbar.minimal import (
    IdealComplex,
    QAColie,
    augment_absolute,
    quillen_compare,
    trivial_base,
)
from adamsbar.parser import parse_text
from adamsbar.relative import (AugmentedOverN, RelativeError, checked_fiber,
                               punctured_line_model)
from corpus import (make_e1, make_e2, make_e3, make_e4, make_e4p, make_e4q,
                    make_k, random_gen_nilpotent)
from test_cli import DEGREE_0_FIBER, random_relative_totals
import reference

F = Fraction


def relative_minimal_model(X, n, w_max):
    """minimal.relative_minimal_model, with the oracle that its structure
    map commutes with d on every fiber generator: every model built in
    this module is checked by reference.structure_map_failures."""
    mm = minimal.relative_minimal_model(X, n, w_max)
    assert reference.structure_map_failures(mm, X.total) == []
    return mm


def test_absolute_model_e2():
    A = augment_absolute(make_e2())
    mm = relative_minimal_model(AugmentedOverN(trivial_base(), A), 1, 3)
    assert mm.certified(), mm.certification
    counts = {}
    for name in mm.fiber_names:
        g = mm.model.gen[name]
        assert g.coh == 1
        counts[g.adams] = counts.get(g.adams, 0) + 1
    assert counts == {1: 2, 2: 1, 3: 2}  # Lyndon dims for two letters
    assert counts == {w: reference.lyndon_count(2, w) for w in (1, 2, 3)}


def test_e3_is_its_own_model():
    A = augment_absolute(make_e3())
    mm = relative_minimal_model(AugmentedOverN(trivial_base(), A), 1, 3)
    assert mm.certified()
    assert len(mm.fiber_names) == 3
    degs = sorted((mm.model.gen[n].coh, mm.model.gen[n].adams) for n in mm.fiber_names)
    assert degs == [(1, 1), (1, 1), (1, 2)]


def test_relative_model_e4_idempotent():
    N = make_e1("t")
    A = make_e4()
    mm = relative_minimal_model(AugmentedOverN(N, A), 2, 3)
    assert mm.certified(), mm.certification
    degs = sorted((mm.model.gen[n].coh, mm.model.gen[n].adams) for n in mm.fiber_names)
    assert degs == [(1, 1), (1, 2)]  # mirrors u, v
    # idempotence: model of the model adds nothing new
    mm2 = relative_minimal_model(AugmentedOverN(N, mm.model), 2, 3)
    assert mm2.certified()
    assert len(mm2.fiber_names) == len(mm.fiber_names)


def test_structure_map_commutes_on_seeded_totals():
    """The structure map commutes with d on the model of every seeded
    total that is a cdga and that the relative input checks accept, at
    n = 2 and w <= 3."""
    models = generators = 0
    for base, total in random_relative_totals(0, 100):
        N, A = parse_text(base)[1], parse_text(total)[1]
        if structure_failures(A):
            continue
        try:
            X = AugmentedOverN(N, A)
            checked_fiber(X, 3)
        except (RelativeError, ValueError):
            continue
        mm = relative_minimal_model(X, 2, 3)
        models += 1
        generators += len(mm.fiber_names)
    assert models >= 35 and generators >= 45


def test_structure_map_failures_sees_a_tampered_map():
    """Sending E4's mirror of u to 0 breaks the structure map at the
    mirror of v, whose d is t times the mirror of u, and nowhere else."""
    X = AugmentedOverN(make_e1("t"), make_e4())
    mm = relative_minimal_model(X, 2, 3)
    (u,) = [g for g in mm.fiber_names if mm.model.gen[g].adams == 1]
    (v,) = [g for g in mm.fiber_names if mm.model.gen[g].adams == 2]
    mm.structure_map[u] = {}
    assert reference.structure_map_failures(mm, X.total) == [v]


def test_stage_log_single_pass():
    N = make_e1("t")
    mm = relative_minimal_model(AugmentedOverN(N, make_e4()), 2, 3)
    # every stage settles within the fixpoint loop
    for entry in mm.stage_log:
        assert entry["iterations"] <= 3


gen_nilpotent = reference.reference_generalized_nilpotent_check


def test_gen_nilpotent_check_fixtures():
    ok, stages = gen_nilpotent(trivial_base(), make_e3())
    assert ok
    assert stages == [["x", "y"], ["z"]]
    ok, stages = gen_nilpotent(make_e1("t"), make_e4())
    assert ok
    assert stages == [["u"], ["v"]]


def test_gen_nilpotent_cycle_detected():
    gens = [GeneratorSpec("a", 2, 1), GeneratorSpec("b", 3, 2)]
    # db depends on a*b's weight... simplest: db = a*b would be (5,3) no.
    # use db involving b itself through a: d(b) has bidegree (4,2): a*a
    A = CdgaPresentation("cyc", gens,
                         differential={"b": {(("a", 2),): 1}})
    ok, stages = gen_nilpotent(trivial_base(), A)
    assert ok  # a*a is fine: depends only on a
    B = CdgaPresentation("cyc2", [GeneratorSpec("g", 2, 1),
                                  GeneratorSpec("h", 2, 2)],
                         differential={"g": {}, "h": {(("h", 1),): F(1)}})
    ok, cyc = gen_nilpotent(trivial_base(), B)
    assert not ok
    assert "h" in cyc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gen_nilpotent_check_passes_at_right_bidegrees(data):
    """A total with every d(g) of bidegree (|g| + 1, wt g) is generalized
    nilpotent over the trivial base, whatever else d is (d^2 need not be
    0): along each use i in d(j), (weight, -degree) strictly drops, since
    a one-factor term has j's weight and one degree more, and a product
    has factors of lower weight (every weight is >= 1).  So no total that
    passes check_bidegrees, as every CLI input does, needs the check, and
    relative.checked_fiber runs none."""
    gens = [GeneratorSpec(f"g{i}", data.draw(st.integers(-1, 3)),
                          data.draw(st.integers(1, 3)))
            for i in range(data.draw(st.integers(1, 5)))]
    free = CdgaPresentation("R", gens)
    diff = {}
    for g in gens:
        keys = free.slice(g.coh + 1, g.adams)
        chosen = data.draw(st.lists(st.sampled_from(keys), unique=True)
                           if keys else st.just([]))
        if chosen:
            diff[g.name] = {m: 1 for m in chosen}
    A = CdgaPresentation("R", gens, diff)
    assert bidegree_failures(A) == []
    ok, stages = gen_nilpotent(trivial_base(), A)
    assert ok, stages
    assert sorted(n for stage in stages for n in stage) == sorted(A.gen)


def _with_uses(A, uses):
    """A copy of A in which d of each generator named in uses also has one
    monomial per generator it is to use."""
    diff = {name: dict(d) for name, d in A.differential.items()}
    for name, used in uses.items():
        for g in used:
            diff.setdefault(name, {})[((g, 1),)] = F(1)
    return CdgaPresentation(f"{A.name}_uses", A.generators, diff,
                            augmentation=A.augmentation)


FIXTURES = {"E1": make_e1, "E2": make_e2, "E3": make_e3, "E4": make_e4,
            "E4p": make_e4p, "K4": lambda: make_k(4)}
BASES = {"E1": lambda: make_e1("t"), "trivial": trivial_base}
INJECTED = {
    # u uses itself
    "self-loop": (make_e4p, {"u": ["u"]}),
    # v uses u through d v = t*u, and u now uses v
    "2-cycle": (make_e4p, {"u": ["v"]}),
    # K4's v_i uses u_i; u2 <-> v2 and u3 <-> v3 are disjoint cycles, and
    # u1, the first unstaged generator, uses both
    "two-cycles": (lambda: make_k(4),
                   {"u1": ["v3", "v2"], "u2": ["v2"], "u3": ["v3"]}),
    # declared z, y, x, w: z, the first unstaged, uses y and x, and the walk
    # steps to x, whose name sorts first, so the witness is x, w, not z, y
    "names": (lambda: CdgaPresentation("R", [
                  GeneratorSpec(g, 1, 1) for g in "zyxw"]),
              {"z": ["y", "x"], "y": ["z"], "x": ["w"], "w": ["x"]}),
}


def _random_uses(seed):
    """Up to eight generators declared in a shuffled name order, each using
    a few random others (itself included), so cycles are common."""
    rng = random.Random(seed)
    names = rng.sample("abcdefgh", rng.randint(1, 8))
    A = CdgaPresentation("R", [GeneratorSpec(g, 1, 1) for g in names])
    return _with_uses(A, {g: rng.sample(names, rng.randint(0, 2))
                          for g in names if rng.random() < 0.6})


def _nilpotent_cases():
    for f, make in FIXTURES.items():
        for b, base in BASES.items():
            yield f"{f}/{b}", base, make
    for seed in range(40):
        yield (f"GN{seed}", BASES["E1"],
               lambda s=seed: random_gen_nilpotent(s, max_fiber=6))
    for case, (make, uses) in INJECTED.items():
        yield case, BASES["E1"], lambda m=make, u=uses: _with_uses(m(), u)
    for seed in range(40):
        yield f"uses{seed}", trivial_base, lambda s=seed: _random_uses(s)


@pytest.mark.parametrize("name, base, make", [
    pytest.param(*case, id=case[0]) for case in _nilpotent_cases()])
def test_gen_nilpotent_check_matches_reference(name, base, make):
    """cellmod._strict_filtration, which stages a cell file's elements, on
    the uses (i, j) where d of fiber generator j uses fiber generator i
    gives the stages of the per-stage rescan; where the rescan finds a
    cycle it raises FiltrationError at an index no later than any
    generator of that cycle, as each is left without a stage."""
    N, A = base(), make()
    fiber = [g.name for g in A.generators if g.name not in N.gen]
    pos = {name: j for j, name in enumerate(fiber)}
    uses = {(pos[g], j): None for j, name in enumerate(fiber)
            for mono in A.differential.get(name, {}) for g, _ in mono
            if g in pos}
    ok, want = reference.reference_generalized_nilpotent_check(N, A)
    if ok:
        assert [[fiber[j] for j in stage]
                for stage in _strict_filtration(fiber, uses)] == want
    else:
        with pytest.raises(FiltrationError) as e:
            _strict_filtration(fiber, uses)
        assert e.value.index <= min(pos[g] for g in want)
    if name in INJECTED:
        assert not ok


def model_qa(A, w):
    """The co-Lie coalgebra of A's 1-minimal model, as quillen_compare
    builds it, on a model that passes the exterior-square oracle."""
    X = AugmentedOverN(trivial_base(), augment_absolute(A))
    mm = relative_minimal_model(X, 1, w)
    assert reference.exterior_square_failures(mm) == []
    return QAColie(mm)


@pytest.fixture
def quillen_models(monkeypatch):
    """The models quillen_compare reads through QAColie, each checked by
    the exterior-square oracle first, which QAColie does not read."""
    models = []

    class CheckedQAColie(QAColie):
        def __init__(self, mm):
            assert reference.exterior_square_failures(mm) == []
            models.append(mm)
            super().__init__(mm)

    monkeypatch.setattr(minimal, "QAColie", CheckedQAColie)
    return models


def test_exterior_square_oracle_fails_on_a_hand_made_model():
    """A degree-2 generator h adjoined by hand to E3's 1-minimal model,
    and a degree-1 generator k with d k = h: neither is in the exterior
    square of the degree-1 generators, and the oracle names both."""
    X = AugmentedOverN(trivial_base(), augment_absolute(make_e3()))
    mm = relative_minimal_model(X, 1, 2)
    assert reference.exterior_square_failures(mm) == []
    mm.model.adjoin(GeneratorSpec("h", 2, 2), aug={})
    mm.model.adjoin(GeneratorSpec("k", 1, 2), {(("h", 1),): 1}, aug={})
    mm.fiber_names += ["h", "k"]
    assert reference.exterior_square_failures(mm) == ["h", "k"]


def test_qa_e3():
    qa = model_qa(make_e3(), 2)
    assert qa.dims() == {1: 2, 2: 1}
    names = {name for _, name in qa.basis}
    assert len(names) == 3
    # the weight-2 generator cobrackets onto the wedge of the weight-1 pair
    (g2,) = qa.by_weight[2]
    cb = qa.cobracket[g2]
    a, b = qa.by_weight[1]
    assert set(cb) == {(a, b)} and cb[(a, b)] != 0


def test_qa_e1():
    qa = model_qa(make_e1(), 3)
    assert qa.dims() == {1: 1}
    assert qa.cobracket[0] == {}


def test_qa_e2_dims():
    qa = model_qa(make_e2(), 3)
    assert qa.dims() == {1: 2, 2: 1, 3: 2}


@pytest.mark.parametrize("mk", [make_e1, make_e2, make_e3])
def test_quillen_compare(mk, quillen_models):
    ok, details = quillen_compare(mk(), 3)
    assert ok, details
    assert len(quillen_models) == 1


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_quillen_compare_random_gen_nilpotent(seed, quillen_models):
    A = random_gen_nilpotent(seed)
    ok, details = quillen_compare(A, 3)
    assert ok, details
    assert len(quillen_models) == 1


def test_ideal_coords_read_off_free_columns():
    """E4's eps over E1 kills u and v and fixes t, so its free columns
    are the monomials with u or v: the ideal in slice (1, 1) is spanned
    by u, and in slice (2, 2) by t u = d v.  An ideal element's
    coordinates are its entries, from_coords writes an entry of
    denominator 1 as an int, and an element with a t-only term is
    refused."""
    X = AugmentedOverN(make_e1("t"), make_e4())
    ic = IdealComplex(X.total, X.eps)
    t, u, v = (("t", 1),), (("u", 1),), (("v", 1),)
    tu = (("t", 1), ("u", 1))
    assert (ic.slice(1, 1), ic.slice(1, 2), ic.slice(2, 2)) == ([u], [v],
                                                                [tu])
    assert ic.d_columns(1, 2) == [{0: 1}]
    assert ic.to_coords({u: F(3)}, 1, 1) == {0: F(3)}
    assert ic.from_coords({0: F(3)}, 1, 1) == {u: 3}
    assert type(ic.from_coords({0: F(3)}, 1, 1)[u]) is int
    assert ic.from_coords({0: F(1, 2)}, 1, 1) == {u: F(1, 2)}
    assert ic.to_coords({}, 1, 1) == {}
    for el in ({t: F(1)}, {u: F(1), t: F(1)}):
        with pytest.raises(ValueError, match="augmentation ideal"):
            ic.to_coords(el, 1, 1)


MODEL_CASES = {
    "E2": lambda: (trivial_base(), augment_absolute(make_e2()), 2, 5),
    "E3": lambda: (trivial_base(), augment_absolute(make_e3()), 2, 5),
    "E4/E1": lambda: (make_e1("t"), make_e4(), 2, 5),
    # cells with a nonzero b at two stages, (1, 2) and (1, 3)
    "E4p/E1": lambda: (make_e1("t"), make_e4p(), 2, 5),
    **{f"GN{seed}": lambda seed=seed: (make_e1("t"),
                                       random_gen_nilpotent(seed), 2, 4)
       for seed in (1, 2, 3, 4, 5, 6, 29)},
    "P1minus3": lambda: (trivial_base(),
                         augment_absolute(punctured_line_model(3)), 2, 6),
    "P1minus4": lambda: (trivial_base(),
                         augment_absolute(punctured_line_model(4)), 2, 5),
}


TABLE_PAIR = "cdga P table\ngen a0 deg 1 wt 1\n"

# name -> (base, total, top weight) of an AugmentedOverN
IDEAL_CASES = {
    "E4/E1": lambda: (make_e1("t"), make_e4(), 4),
    "E4p/E1": lambda: (make_e1("t"), make_e4p(), 4),
    **{f"GN{seed}": lambda seed=seed: (make_e1("t"),
                                       random_gen_nilpotent(seed), 4)
       for seed in (1, 2, 3, 29)},
    "P1minus4": lambda: (trivial_base(),
                         augment_absolute(punctured_line_model(4)), 4),
    # a fiber generator of degree 0
    "degree0": lambda: (make_e1("t"), parse_text(DEGREE_0_FIBER)[1], 4),
    # base and fiber generators in the one table
    "table pair": lambda: (
        parse_text(TABLE_PAIR)[1],
        parse_text(TABLE_PAIR + "gen a1 deg 1 wt 1\ngen a2 deg 1 wt 1\n"
                   "aug a1 = 0\naug a2 = 0\n")[1], 3),
}


@pytest.mark.parametrize("case", sorted(IDEAL_CASES))
def test_ideal_matches_kernel_of_eps(case):
    """The monomials with a fiber generator are the kernel of eps: slice
    by slice, the ideal's keys (as elements), d columns and H dims equal
    the reference's, found by eliminating eps, and both read the same
    coordinates off an ideal element, give it back from them and refuse
    an element with a monomial of base generators only."""
    N, A, w_max = IDEAL_CASES[case]()
    X = AugmentedOverN(N, A)
    ic = IdealComplex(A, X.eps)
    ref = reference.ReferenceIdealComplex(A, X.eps)
    nonempty = 0
    for m in range(w_max + 1):
        for i in range(-1, 5):
            keys = [ic.from_coords({k: 1}, i, m)
                    for k in range(len(ic.slice(i, m)))]
            assert keys == [ref.from_coords({k: 1}, i, m)
                            for k in range(len(ref.slice(i, m)))], (i, m)
            assert ic.d_columns(i, m) == ref.d_columns(i, m), (i, m)
            assert ic.cohomology(i, m)[0] == ref.cohomology(i, m)[0]
            el = {}
            for k, key in enumerate(keys):
                linalg._vec_iadd(el, key, F(k + 1, 2))
            coords = ic.to_coords(el, i, m)
            assert list(coords.items()) == list(
                ref.to_coords(el, i, m).items()), (i, m)
            assert ic.from_coords(coords, i, m) == el
            assert ref.from_coords(coords, i, m) == el
            outside = [mono for mono in A.slice(i, m)
                       if not any(name in X.eps for name, _ in mono)]
            for mono in outside:
                for c in (ic, ref):
                    with pytest.raises(ValueError):
                        c.to_coords({**el, mono: 1}, i, m)
            nonempty += bool(keys)
    assert nonempty


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_minimal_model_matches_reference(case):
    """The shared cell-attaching loop, with the model grown in place,
    gives the model of the reference loop that copies it every round:
    the same generators and bidegrees, differentials, structure map,
    stage iterations and certificate."""
    N, A, n, w = MODEL_CASES[case]()
    mm = relative_minimal_model(AugmentedOverN(N, A), n, w)
    ref = reference.reference_minimal_model(N, A, n, w)
    assert mm.fiber_names == ref.fiber_names
    assert mm.model.generators == ref.model.generators
    assert mm.model.differential == ref.model.differential
    assert mm.structure_map == ref.structure_map
    assert [s["iterations"] for s in mm.stage_log] == ref.iterations
    assert mm.certification == ref.certification
    assert mm.certified()


# name -> (base, total) of the models the two loops must grow alike
LOOP_CASES = {
    **{name: lambda mk=mk: (trivial_base(), augment_absolute(mk()))
       for name, mk in (("E1", make_e1), ("E2", make_e2), ("E3", make_e3))},
    **{f"{name}/E1": lambda mk=mk: (make_e1("t"), mk())
       for name, mk in (("E4", make_e4), ("E4p", make_e4p),
                        ("E4q", make_e4q))},
    **{f"P1minus{k}": lambda k=k: (
        trivial_base(), augment_absolute(punctured_line_model(k)))
       for k in (3, 4, 5)},
}


@pytest.mark.parametrize("stage_rounds", [linalg.STAGE_ROUNDS, 1, 2])
@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_minimal_model_matches_the_reference_loop(case, stage_rounds,
                                                  monkeypatch):
    """At n = 2 and w <= 4, the loop that images each list of source
    classes once grows the model of the loop that images every class
    again: the same generators, d, structure map, rounds and
    certification, with stages capped at one or two rounds too."""
    monkeypatch.setattr(linalg, "STAGE_ROUNDS", stage_rounds)
    N, A = LOOP_CASES[case]()
    X = AugmentedOverN(N, A)
    runs = []
    for loop in (linalg.attach_cells, reference.reference_attach_cells):
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "attach_cells", loop)
            mm = relative_minimal_model(X, 2, 4)
        runs.append((mm.fiber_names, mm.model.generators,
                     mm.model.differential, mm.structure_map,
                     mm.stage_log, mm.certification))
    assert runs[0] == runs[1]
    assert runs[0][0]


@pytest.mark.parametrize("case", ["P1minus4", "E4/E1"])
def test_ideal_coordinates_stay_ints(case, monkeypatch):
    """Over an integral presentation, from_coords writes every value of
    denominator 1 as an int, so the structure maps compute with ints."""
    values = []
    real = IdealComplex.from_coords

    def recording(self, v, i, m):
        out = real(self, v, i, m)
        values.extend(out.values())
        return out

    monkeypatch.setattr(IdealComplex, "from_coords", recording)
    N, A, n, w = MODEL_CASES[case]()
    assert relative_minimal_model(AugmentedOverN(N, A), n, w).certified()
    assert any(type(c) is int for c in values)
    assert not [c for c in values
                if type(c) is F and c.denominator == 1]


def test_minimal_model_cap_is_not_certified(monkeypatch):
    """With one round per stage, every stage of E2 at n = 1 that adds
    generators reaches the cap while still adding, so its (1, m) entry is
    not certified; at the default cap the same model certifies."""
    X = AugmentedOverN(trivial_base(), augment_absolute(make_e2()))
    assert relative_minimal_model(X, 1, 3).certified()
    monkeypatch.setattr(linalg, "STAGE_ROUNDS", 1)
    mm = relative_minimal_model(X, 1, 3)
    assert {m: mm.certification[(1, m)] for m in (1, 2, 3)} == {
        1: False, 2: False, 3: False}
    assert [s["iterations"] for s in mm.stage_log] == [1, 1, 1]
    assert not mm.certified()
