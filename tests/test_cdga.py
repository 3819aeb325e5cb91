import itertools
from fractions import Fraction

import pytest

from adamsbar.cdga import (
    CdgaPresentation,
    GeneratorSpec,
    UNIT,
    el_add,
    el_gen,
    el_scale,
    is_coh_connected,
    structure_failures,
    validate,
)
import reference
from corpus import make_e1, make_e2, make_e3, make_e4, make_e4p, random_free_cdga

F = Fraction


def test_validate_fixtures():
    for mk in (make_e1, make_e2, make_e3, make_e4, make_e4p):
        ok, failures = validate(mk())
        assert ok, failures


def test_validate_catches_adams_mismatch():
    gens = [GeneratorSpec("x", 1, 1), GeneratorSpec("z", 1, 2)]
    A = CdgaPresentation("bad", "free", gens, {"z": el_gen("x")})
    ok, failures = validate(A)
    assert not ok
    assert any("z" in f for f in failures)


def test_validate_catches_d_squared():
    # du = v, dv = u*... make d^2 nonzero: du = v, dv = w with w closed? use
    # deg bookkeeping-valid chain u(1,1) -> v(2,1) -> x(3,1), dv = x, dx = 0
    gens = [GeneratorSpec("u", 1, 1), GeneratorSpec("v", 2, 1), GeneratorSpec("x", 3, 1)]
    A = CdgaPresentation("bad2", "free", gens, {"u": el_gen("v"), "v": el_gen("x")})
    ok, failures = validate(A)
    assert not ok
    assert any("d^2" in f for f in failures)


def test_basis_slices_e1(e1):
    assert e1.slice(0, 0) == [UNIT]
    assert e1.slice(1, 1) == [(("x", 1),)]
    assert e1.slice(2, 2) == []  # x odd, x^2 = 0


def test_basis_slices_e3(e3):
    assert e3.slice(2, 2) == [(("x", 1), ("y", 1))]
    s = e3.slice(2, 3)
    assert s == [(("x", 1), ("z", 1)), (("y", 1), ("z", 1))]


def test_multiply_signs(e3):
    xy = e3.multiply(el_gen("x"), el_gen("y"))
    yx = e3.multiply(el_gen("y"), el_gen("x"))
    assert el_add(xy, yx) == {}
    assert e3.multiply(el_gen("x"), el_gen("x")) == {}


def test_table_products_vanish(e2):
    assert e2.multiply(el_gen("x0"), el_gen("x1")) == {}
    assert e2.multiply(el_gen("x0"), el_gen("x0")) == {}


def test_apply_d(e3):
    dz = e3.apply_d(el_gen("z"))
    assert dz == e3.multiply(el_gen("x"), el_gen("y"))
    dxz = e3.apply_d(e3.multiply(el_gen("x"), el_gen("z")))
    assert dxz == {}  # dx*z - x*(xy) = 0
    assert e3.apply_d({UNIT: F(1)}) == {}


def make_table_with_d():
    """Table group {x0, x1, y} with no products yet, and a free f (0,1)
    with d f = x1: d of a monomial in f reads the table."""
    gens = [GeneratorSpec("x0", 1, 1, group="g"),
            GeneratorSpec("x1", 1, 1, group="g"),
            GeneratorSpec("y", 2, 2, group="g"), GeneratorSpec("f", 0, 1)]
    return CdgaPresentation("T", "table", gens, {"f": el_gen("x1")})


def _monomials(A, w_max):
    lo = min([0] + [g.coh for g in A.generators])
    hi = max([0] + [g.coh for g in A.generators])
    return [m for r in range(w_max + 1) for n in range(r * lo, r * hi + 1)
            for m in A.slice(n, r)]


def _check_against_reference(A, w_max):
    """d of every monomial of weight <= w_max and the product of every
    pair of total weight <= w_max, read twice (the second read is served
    by the memos) and once more after the caller changed the first
    result, equal to the memo-free reference with the same key order."""
    monos = _monomials(A, w_max)
    wt = {m: A.mono_bidegree(m)[1] for m in monos}
    calls = [(A.apply_d, reference.reference_apply_d, ({m: 1},))
             for m in monos]
    calls += [(A.multiply, reference.reference_multiply, ({m1: 1}, {m2: F(2)}))
              for m1 in monos for m2 in monos if wt[m1] + wt[m2] <= w_max]
    for f, ref, args in calls:
        want = list(ref(A, *args).items())
        for _ in range(2):
            got = f(*args)
            assert list(got.items()) == want, args
            got[UNIT] = 7
    # elements with several terms and Fraction coefficients
    for r in range(1, w_max + 1):
        el = {m: F(k + 1, 2) for k, m in enumerate(monos) if wt[m] == r}
        assert A.apply_d(el) == reference.reference_apply_d(A, el)
        assert A.multiply(el, el) == reference.reference_multiply(A, el, el)


@pytest.mark.parametrize("mk", [make_e1, make_e2, make_e3, make_e4,
                                make_e4p, make_table_with_d])
def test_structure_maps_match_reference(mk):
    _check_against_reference(mk(), 4)


def test_structure_maps_after_adjoin(e3):
    """adjoin keeps every memo: a new generator changes neither d nor the
    product of a monomial without it."""
    _check_against_reference(e3, 3)
    e3.adjoin(GeneratorSpec("w", 1, 3), e3.multiply(el_gen("x"), el_gen("z")))
    _check_against_reference(e3, 4)
    e3.adjoin(GeneratorSpec("e", 2, 1))
    _check_against_reference(e3, 4)


def test_set_product_is_seen():
    A = make_table_with_d()
    fx0 = (("f", 1), ("x0", 1))
    assert A.multiply(el_gen("x0"), el_gen("x1")) == {}
    assert A.apply_d({fx0: 1}) == {}
    A.set_product("x0", "x1", el_gen("y"))
    assert A.multiply(el_gen("x0"), el_gen("x1")) == el_gen("y")
    assert A.multiply(el_gen("x1"), el_gen("x0")) == {(("y", 1),): -1}
    # d(f x0) = d(f) x0 = x1 x0 = -y through the new table entry
    assert A.apply_d({fx0: 1}) == {(("y", 1),): -1}
    _check_against_reference(A, 4)


def test_cohomology_slices(e1, e3):
    assert e1.cohomology(1, 1)[0] == 1
    assert e1.cohomology(2, 2)[0] == 0
    assert e3.cohomology(1, 2)[0] == 0  # z not closed
    assert e3.cohomology(2, 2)[0] == 0  # xy exact
    assert e3.cohomology(0, 0)[0] == 1


def test_connectedness(e1, e2, e3):
    for A in (e1, e2, e3):
        ok, wit = is_coh_connected(A, adams_max=3)
        assert ok, wit


def test_not_connected():
    A = CdgaPresentation("nc", "free", [GeneratorSpec("v", 0, 1)])
    ok, wit = is_coh_connected(A, adams_max=2)
    assert not ok
    assert (0, 1, 1) in wit


def test_random_cdgas_valid():
    for seed in range(25):
        A = random_free_cdga(seed)
        ok, failures = validate(A)
        assert ok, (seed, failures)


def _slice_elements(A, n, r):
    return [{m: F(1)} for m in A.slice(n, r)]


@pytest.mark.parametrize("seed", range(6))
def test_associativity_commutativity_random(seed):
    A = random_free_cdga(seed)
    pool = []
    for n in range(0, 3):
        for r in range(1, 3):
            pool.extend((n, e) for e in _slice_elements(A, n, r))
    for (da, a), (db, b), (dc, c) in itertools.islice(
        itertools.product(pool, pool, pool), 200
    ):
        lhs = A.multiply(A.multiply(a, b), c)
        rhs = A.multiply(a, A.multiply(b, c))
        assert lhs == rhs
        comm = el_add(A.multiply(a, b), A.multiply(b, a), F(-((-1) ** (da * db))))
        assert comm == {}


@pytest.mark.parametrize("seed", range(10))
def test_d_squared_on_slices(seed):
    A = random_free_cdga(seed)
    for n in range(0, 4):
        for r in range(0, 4):
            for e in _slice_elements(A, n, r):
                assert A.apply_d(A.apply_d(e)) == {}


def test_leibniz_table(e2):
    ok, failures = validate(e2)
    assert ok, failures


def test_structure_failures_name_non_associative_triples():
    """(xy)z = pz = q while x(yz) = 0: each triple whose two bracketings
    differ is named, in generator order."""
    gens = [GeneratorSpec(n, 2 * r, r, group="G")
            for n, r in (("x", 1), ("y", 1), ("z", 1), ("p", 2), ("q", 3))]
    T = CdgaPresentation("T", "table", gens, products={
        ("x", "y"): {(("p", 1),): 1}, ("p", "z"): {(("q", 1),): 1}})
    assert structure_failures(T) == [
        f"table not associative on ({t})"
        for t in ("x,y,z", "y,x,z", "z,x,y", "z,y,x")]


def test_structure_failures_walk_a_table_with_d_and_no_product():
    """With no product, gh = 0 in the group, but d g = u is free, so
    d(g)h = uh != 0 = d(gh): the d alone makes the table no cdga."""
    T = CdgaPresentation(
        "T", "table",
        [GeneratorSpec("g", 1, 1, group="G"),
         GeneratorSpec("h", 1, 1, group="G"), GeneratorSpec("u", 2, 1)],
        differential={"g": {(("u", 1),): 1}})
    assert structure_failures(T) == [
        "Leibniz fails on table pair (g,h)", "Leibniz fails on table pair (h,g)"]
