import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from adamsbar.linalg import (
    ONE,
    Echelon,
    KernelCoords,
    attach_cells,
    cocycle_classes,
    kernel_basis,
    quotient_basis,
    solve,
    solver,
)
from adamsbar import linalg
from adamsbar.cellmod import cell_resolution
from adamsbar.minimal import relative_minimal_model
from adamsbar.relative import AugmentedOverN
import reference
from test_cellmod import BENCH_WINDOW, _bench_dg_module
from test_minimal import LOOP_CASES as MODEL_LOOP_CASES

F = Fraction


def dense(vec, n):
    return [vec.get(i, F(0)) for i in range(n)]


def mat(rows):
    """The columns of the matrix with the given dense rows."""
    return [{i: F(r[j]) for i, r in enumerate(rows) if r[j]}
            for j in range(len(rows[0]) if rows else 0)]


def apply(cols, x):
    """The matrix with columns cols times the vector x."""
    out = {}
    for j, c in x.items():
        for i, y in cols[j].items():
            out[i] = out.get(i, 0) + c * y
    return {i: y for i, y in out.items() if y}


def test_kernel_identity():
    assert kernel_basis(mat([[1, 0], [0, 1]])) == []


def test_kernel_zero_map():
    ker = kernel_basis(mat([[0, 0]]))
    assert len(ker) == 2


def test_kernel_rank_one():
    ker = kernel_basis(mat([[1, 1], [1, 1]]))
    assert len(ker) == 1
    v = ker[0]
    # proportional to (1, -1)
    assert v[0] * F(-1) == v[1] * F(1)


def test_solve_identity():
    assert solve(mat([[1]]), {0: F(3)}) == {0: F(3)}


def test_solve_scaling():
    assert solve(mat([[2]]), {0: F(4)}) == {0: F(2)}


def test_solve_unsolvable():
    assert solve(mat([[1, 0], [0, 0]]), {1: F(1)}) is None


# quotient representatives of Q^n / span(sub): the unit vectors at the
# non-pivot columns of sub's echelon


def test_quotient_reps_trivial_sub():
    assert Echelon([]).non_pivots(2) == [0, 1]


def test_quotient_reps_standard():
    assert Echelon([{0: F(1)}]).non_pivots(2) == [1]


def test_quotient_reps_echelon_pivot():
    assert Echelon([{0: F(1), 1: F(1)}]).non_pivots(2) == [1]


def test_quotient_basis():
    sub = [{0: F(1), 1: F(1)}]
    vecs = [{0: F(1)}, {1: F(1)}]
    reps = quotient_basis(sub, vecs)
    assert reps == [{0: F(1)}]


small = st.integers(min_value=-5, max_value=5)


@st.composite
def matrices(draw):
    """Dense rows of an r x c matrix."""
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    return draw(
        st.lists(st.lists(small, min_size=c, max_size=c), min_size=r, max_size=r)
    )


@given(matrices())
def test_rank_nullity(rows):
    """The column rank plus the nullity of the row elimination is the
    number of columns."""
    m = mat(rows)
    assert len(Echelon(m)) + len(kernel_basis(m)) == len(m)


@given(matrices(), st.lists(small, min_size=4, max_size=4))
def test_solve_consistency(rows, xs):
    m = mat(rows)
    x = {i: F(v) for i, v in enumerate(xs[: len(m)]) if v}
    b = apply(m, x)
    sol = solve(m, b)
    assert sol is not None
    assert apply(m, sol) == b


@given(matrices())
def test_kernel_vectors_in_kernel(rows):
    m = mat(rows)
    for v in kernel_basis(m):
        assert apply(m, v) == {}


@given(matrices())
def test_quotient_reps_complete_basis(rows):
    """The image plus a unit vector at each non-pivot row spans every
    row."""
    m = mat(rows)
    reps = [{j: F(1)} for j in Echelon(m).non_pivots(len(rows))]
    assert len(Echelon(m + reps)) == len(rows)


def test_class_projector():
    # space Q^3, classes spanned by e0 mod span{e1}: the projector of
    # cocycle_classes on an independent family
    proj = cocycle_classes([{0: F(1)}], [{1: F(1)}])[2]
    assert proj.class_coords({0: F(2), 1: F(5)}) == {0: F(2)}
    assert proj.class_coords({2: F(1)}) is None


@st.composite
def families(draw):
    """(dim, family vectors, number of reps, target vectors): the targets
    are a random vector (often outside the span), a combination of the
    family (inside it) and 0."""
    dim = draw(st.integers(1, 6))
    vec = st.lists(small, min_size=dim, max_size=dim).map(
        lambda xs: {i: F(x) for i, x in enumerate(xs) if x})
    family = draw(st.lists(vec, max_size=dim))
    nreps = draw(st.integers(0, len(family)))
    coeffs = draw(st.lists(small, min_size=len(family), max_size=len(family)))
    inside = {i: x for i in range(dim)
              if (x := sum(c * u.get(i, 0) for c, u in zip(coeffs, family)))}
    return dim, family, nreps, [draw(vec), inside, {}]


@example((3, [], 0, [{1: F(2)}, {}]))                      # empty family
@example((3, [{0: F(1), 1: F(1)}], 1, [{1: F(1)}, {0: F(3), 1: F(3)}]))
@given(families())
def test_class_projector_matches_solve(case):
    """On an independent family reps + image, the projector of
    cocycle_classes(reps, image) keeps every rep and gives the
    coordinates of a fresh solve against the family, in values and key
    order."""
    dim, family, nreps, targets = case
    assume(len(Echelon(family)) == len(family))

    def snapshot():
        return [list(v.items()) for v in family + targets]

    before = snapshot()
    dim_h, reps, proj = cocycle_classes(family[:nreps], family[nreps:])
    assert dim_h == nreps and reps == family[:nreps]
    assert snapshot() == before
    for v in targets:
        sol = solve(family, v)
        got = proj.class_coords(v)
        if sol is None:
            assert got is None
        else:
            want = {i: c for i, c in sol.items() if i < nreps and c}
            assert list(got.items()) == list(want.items())
    # the reduction works on copies: neither the family nor a query moved
    assert snapshot() == before


@st.composite
def sparse_families(draw):
    """Sparse rows over 8 columns with keys in random order; some rows are
    combinations of earlier ones, so the family is often dependent."""
    entry = st.integers(-4, 4).filter(bool).map(F)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        if rows and draw(st.booleans()):
            # a combination of two earlier rows, keys in first-seen order
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entry)
            row = dict(a)
            for i, x in b.items():
                row[i] = row.get(i, F(0)) + c * x
            rows.append({i: x for i, x in row.items() if x})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, 7), entry,
                                             max_size=5)))
    return rows


def pivots_of(vectors):
    """The pivots that Echelon.add returns on vectors, one at a time."""
    e = Echelon()
    return e, [p for p in map(e.add, vectors) if p is not None]


def reference_residue(q, rows, pivots):
    """q reduced against the reference's rows, which are fully reduced."""
    out = dict(q)
    for p, row in zip(pivots, rows):
        if out.get(p):
            out = reference._vec_add(out, row, -out[p])
    return out


# the third row finds pivot 4 only after the rows at 0 and 1 are
# subtracted, and kernel_basis must then clear 4 out of the row at 1
@example([{0: F(1), 5: F(1)}, {1: F(1), 4: F(1)}, {0: F(1), 1: F(1)}])
@given(sparse_families())
def test_echelonize_matches_reference(rows):
    """The pivots, the residue of each unit vector and the kernel of the
    matrix with these rows (values and key order) are the reference's,
    and the input rows are left alone."""
    before = [list(r.items()) for r in rows]
    want_rows, want_piv = reference.reference_echelonize(rows)
    e, got_piv = pivots_of(rows)
    assert sorted(got_piv) == want_piv and len(e) == len(want_piv)
    for j in range(8):
        residue = e.reduce({j: F(1)})
        assert residue == reference_residue({j: F(1)}, want_rows, want_piv)
    m = raw_matrix(rows, 8)
    assert items(kernel_basis(m)) == items(reference.reference_kernel_basis(m))
    assert [list(r.items()) for r in rows] == before


@st.composite
def complexes(draw):
    """(d_out, d_in, queries) with d_out d_in = 0 on Q^n: the columns of
    d_in are combinations (often dependent) of kernel vectors of d_out; the
    queries are a cocycle, a coboundary, a random vector (often not a
    cocycle) and 0."""
    n = draw(st.integers(1, 6))
    sparse = st.one_of(st.just(0), small)
    d_out = mat(draw(st.lists(st.lists(sparse, min_size=n, max_size=n),
                              min_size=1, max_size=4)))
    ker = reference.reference_kernel_basis(d_out)

    def combination():
        coeffs = draw(st.lists(small, min_size=len(ker), max_size=len(ker)))
        v = {}
        for c, u in zip(coeffs, ker):
            for i, x in u.items():
                v[i] = v.get(i, F(0)) + c * x
        return {i: x for i, x in v.items() if x}

    d_in = [combination() for _ in range(draw(st.integers(0, 4)))]
    vec = st.lists(small, min_size=n, max_size=n).map(
        lambda xs: {i: F(x) for i, x in enumerate(xs) if x})
    boundary = apply(d_in, {j: F(x) for j, x in enumerate(
        draw(st.lists(small, min_size=len(d_in), max_size=len(d_in)))) if x})
    return d_out, d_in, [combination(), boundary, draw(vec), {}]


# H = Q^2 / span(e0 + e1): one class, the first free kernel vector
@example((mat([[0, 0]]), [{0: F(1), 1: F(1)}],
          [{0: F(2)}, {1: F(1)}, {}]))
# pivots found in the order 1, 0: the representative lists them ascending
@example((mat([[0, 1, 1], [1, 0, 1]]), [], [{}]))
@given(complexes())
def test_cohomology_matches_reference(case):
    """One elimination gives the dimension, the representatives (values
    and key order) and the class coordinates of the reference's three
    eliminations and separate projector; a query that is not a cocycle
    has no coordinates."""
    d_out, d_in, queries = case
    dim, reps, proj = cocycle_classes(kernel_basis(d_out), d_in)
    want_dim, want_reps, want_proj = reference.reference_cohomology(
        d_out, d_in)
    assert dim == want_dim == len(reps)
    assert [list(v.items()) for v in reps] == [
        list(v.items()) for v in want_reps]
    for q in queries + reps:
        got = proj.class_coords(q)
        try:
            want = want_proj.class_coords(q)
        except ValueError:
            assert got is None
        else:
            assert list(got.items()) == list(want.items())


# ---- int and Fraction inputs ----------------------------------------------
#
# The structure maps hand linalg int entries where a presentation is
# integral and Fractions elsewhere; Echelon computes on integer rows and
# must return the reference's Fractions either way.

mixed = st.one_of(
    st.integers(-4, 4),
    st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
).filter(bool)


def mixed_vectors(draw, n, count):
    """count sparse vectors over n columns, entries mixing ints and
    Fractions with non-unit denominators; some are rational combinations
    of two earlier ones, keys in first-seen order."""
    vecs = []
    for _ in range(count):
        if vecs and draw(st.booleans()):
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            c = draw(mixed)
            v = dict(a)
            for i, x in b.items():
                v[i] = v.get(i, 0) + c * x
            vecs.append({i: x for i, x in v.items() if x})
        else:
            vecs.append(draw(st.dictionaries(st.integers(0, n - 1), mixed,
                                             max_size=5)))
    return vecs


def raw_matrix(rows, ncols):
    """The columns of the matrix with the given sparse rows, holding the
    entries as given, int or Fraction, as the d_columns builders store
    them."""
    return [{i: r[j] for i, r in enumerate(rows) if j in r}
            for j in range(ncols)]


def assert_fractions(vectors):
    for v in vectors:
        assert all(type(x) is F for x in v.values()), v


def items(vectors):
    return [list(v.items()) for v in vectors]


@st.composite
def mixed_families(draw):
    return (mixed_vectors(draw, 8, draw(st.integers(0, 9))),
            mixed_vectors(draw, 8, 3))


@example(([{0: 2, 1: F(1, 3)}, {0: F(1, 2), 2: 3}, {1: 1, 2: F(-5, 4)}],
          [{0: 1, 1: 1, 2: 1}]))
@given(mixed_families())
def test_integer_echelon_matches_reference_on_mixed_entries(case):
    """Pivots, kernel_basis (values and key order) and reduce residues
    agree with the Fraction reference, and are Fractions."""
    vecs, queries = case
    before = items(vecs + queries)
    want_rows, want_piv = reference.reference_echelonize(vecs)
    e, got_piv = pivots_of(vecs)
    assert sorted(got_piv) == want_piv and len(e) == len(want_piv)
    m = raw_matrix(vecs, 8)
    ker = kernel_basis(m)
    assert items(ker) == items(reference.reference_kernel_basis(m))
    assert_fractions(ker)
    for q in queries:
        residue = e.reduce(q)
        assert residue == reference_residue(q, want_rows, want_piv)
        assert not set(residue) & set(want_piv)
        assert_fractions([residue])
    assert items(vecs + queries) == before


@st.composite
def column_systems(draw):
    """(columns, right-hand sides) over n rows, entries mixing ints and
    Fractions: the columns are often combinations of earlier ones or
    empty, and the right-hand sides are a combination of the columns, a
    random vector (often outside their span) and 0."""
    n = draw(st.integers(1, 6))
    cols = mixed_vectors(draw, n, draw(st.integers(0, 6)))
    inside = {}
    for col in cols:
        c = draw(st.one_of(st.just(0), mixed))
        for i, x in col.items():
            inside[i] = inside.get(i, 0) + c * x
    inside = {i: x for i, x in inside.items() if x}
    return cols, [inside, mixed_vectors(draw, n, 1)[0], {}]


@example(([], [{}, {0: 1}]))                                 # no columns
@example(([{}, {}], [{}, {1: F(1, 2)}]))                     # zero rows
@example(([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: F(1, 3)}],        # dependent
          [{0: 3, 1: 7}, {0: F(1, 2)}]))
@example(([{0: F(2, 3)}, {1: 1}], [{2: 1}, {0: 1, 2: F(5, 2)}]))  # outside
@given(column_systems())
def test_kernel_and_solver_match_reference(case):
    """kernel_basis of the columns and one solver for every right-hand
    side give the reference's kernel and solutions in values and key
    order, None exactly when b is outside the column space, and leave
    their inputs alone."""
    cols, rhs = case
    before = items(cols + rhs)
    ker = kernel_basis(cols)
    assert items(ker) == items(reference.reference_kernel_basis(cols))
    assert_fractions(ker)
    s = solver(cols)
    for b in rhs:
        want = reference.reference_solve(cols, b)
        got = s.class_coords(b)
        if want is None:
            assert got is None and solve(cols, b) is None
        else:
            assert items([got]) == items([solve(cols, b)]) == items([want])
            assert_fractions([got])
    assert items(cols + rhs) == before


@st.composite
def mixed_complexes(draw):
    """(d_out, d_in, queries) as in complexes(), with mixed int and
    Fraction entries: the columns of d_in are rational combinations of
    kernel vectors of d_out."""
    n = draw(st.integers(1, 6))
    rows = mixed_vectors(draw, n, draw(st.integers(1, 4)))
    d_out = raw_matrix(rows, n)
    ker = reference.reference_kernel_basis(d_out)

    def combination():
        v = {}
        for u in ker:
            c = draw(st.one_of(st.just(0), mixed))
            for i, x in u.items():
                v[i] = v.get(i, 0) + c * x
        return {i: x for i, x in v.items() if x}

    d_in = [combination() for _ in range(draw(st.integers(0, 4)))]
    queries = [combination(), d_in[0] if d_in else {},
               mixed_vectors(draw, n, 1)[0], {}]
    return d_out, d_in, queries


@example((raw_matrix([{0: 2, 1: F(4, 3)}], 3),
          raw_matrix([{0: F(2, 3)}, {0: -1}, {}], 1),
          [{0: F(2, 3), 1: -1}, {2: 5}, {}]))
@given(mixed_complexes())
def test_integer_cohomology_matches_reference_on_mixed_entries(case):
    """Dimension, representatives (values and key order) and class
    coordinates agree with reference_cohomology, and every returned value
    is a Fraction."""
    d_out, d_in, queries = case
    dim, reps, proj = cocycle_classes(kernel_basis(d_out), d_in)
    want_dim, want_reps, want_proj = reference.reference_cohomology(
        d_out, d_in)
    assert dim == want_dim == len(reps)
    assert items(reps) == items(want_reps)
    assert_fractions(reps)
    for q in queries + reps:
        got = proj.class_coords(q)
        try:
            want = want_proj.class_coords(q)
        except ValueError:
            assert got is None
        else:
            assert list(got.items()) == list(want.items())
            assert_fractions([got])
        assert_fractions([proj.reduce(q)])


def integral_entries(v):
    """v with each entry of denominator 1 written as an int."""
    return {i: x.numerator if x.denominator == 1 else x for i, x in v.items()}


@st.composite
def kernels_and_queries(draw):
    """(kernel_basis of a random mixed matrix, queries): two rational
    combinations of the kernel vectors, a random vector (often outside
    their span) and 0."""
    n = draw(st.integers(1, 6))
    ker = kernel_basis(raw_matrix(
        mixed_vectors(draw, n, draw(st.integers(0, 4))), n))

    def combination():
        v = {}
        for u in ker:
            c = draw(st.one_of(st.just(0), mixed))
            for i, x in u.items():
                v[i] = v.get(i, 0) + c * x
        return {i: x for i, x in v.items() if x}

    return ker, [combination(), combination(),
                 mixed_vectors(draw, n, 1)[0], {}]


@example(([{0: F(1)}, {1: F(-2), 2: F(1)}], [{0: 3, 1: -4, 2: 2}, {1: 1}]))
@given(kernels_and_queries())
def test_kernel_coords_match_cocycle_classes(case):
    """KernelCoords reads the coordinates cocycle_classes(kernel, []) gives
    on the kernel: the same values and key order for Fraction and int
    entries, each v's own entry at its vector's free column, and None
    outside the span; and its inputs are left alone."""
    ker, queries = case
    before = items(ker + queries)
    want_proj, got_proj = cocycle_classes(ker, [])[2], KernelCoords(ker)
    for q in queries:
        for v in (q, integral_entries(q)):
            want = want_proj.class_coords(v)
            got = got_proj.class_coords(v)
            if want is None:
                assert got is None
            else:
                assert list(got.items()) == list(want.items())
                assert all(type(c) is type(v[max(ker[k])])
                           for k, c in got.items())
    assert items(ker + queries) == before


# ---- the triangular echelon against the back-substituting one -------------


@st.composite
def echelon_scripts(draw):
    """(vectors, tags, queries): mixed int and Fraction vectors over 8
    columns in random key order, some combinations of earlier ones; each
    is tagged by its index or untagged; the queries are a combination of
    the vectors, two random vectors (often outside their span) and 0."""
    vecs = mixed_vectors(draw, 8, draw(st.integers(0, 10)))
    tags = [i if draw(st.booleans()) else None for i in range(len(vecs))]
    inside = {}
    for v in vecs:
        c = draw(st.one_of(st.just(0), mixed))
        for i, x in v.items():
            inside[i] = inside.get(i, 0) + c * x
    inside = {i: x for i, x in inside.items() if x}
    return vecs, tags, [inside] + mixed_vectors(draw, 8, 2) + [{}]


# the row at 0 brings pivot 3 into the query's support, below pivot 5,
# which is already in the heap
HEAP_CASE = ([{0: 1, 3: 1}, {3: 1, 5: 1}, {5: 1, 6: 1}], [0, None, 2],
             [{0: 1, 5: 1}, {5: 1, 0: F(1, 2)}])


@example(HEAP_CASE)
@example(([{0: 1, 3: 1}, {0: 2, 3: 2}, {3: F(1, 3)}], [0, 1, 2],
          [{0: 1}, {3: 1}]))                             # dependent
@given(echelon_scripts())
def test_echelon_matches_back_substituting_reference(case):
    """Triangular rows give the back-substituting echelon's pivot on each
    add, its rank, non-pivots, reduce residues (values and Fraction
    type) and class_coords (values, key order, Fraction type and None),
    and leave their inputs alone."""
    vecs, tags, queries = case
    before = items(vecs + queries)
    got, want = Echelon(), reference.ReferenceEchelon()
    for v, tag in zip(vecs, tags):
        assert got.add(v, tag) == want.add(v, tag)
        assert len(got) == len(want)
    assert got.non_pivots(9) == want.non_pivots(9)
    for q in vecs + queries:
        residue = got.reduce(q)
        assert residue == want.reduce(q)
        assert_fractions([residue])
        c = got.class_coords(q)
        w = want.class_coords(q)
        if w is None:
            assert c is None
        else:
            assert list(c.items()) == list(w.items())
            assert_fractions([c])
    assert items(vecs + queries) == before


def test_reduce_subtracts_each_row_once(monkeypatch):
    """The pivots are taken in ascending order, so a reduction never meets
    a pivot again after its row was subtracted: each row goes in once,
    even where a row brings in a pivot below one already waiting."""
    vecs, _, queries = HEAP_CASE
    e = Echelon(vecs)
    rows = []
    iadd = linalg._vec_iadd

    def record(u, v, c):
        rows.append(id(v))
        iadd(u, v, c)

    monkeypatch.setattr(linalg, "_vec_iadd", record)
    for q in queries:
        rows.clear()
        e.reduce(q)
        assert len(rows) == len(set(rows))


IADD_CS = [1, -1, 2, F(1), F(1, 2)]


@example({0: 2, 1: F(1, 2), 3: 1}, {1: F(-1, 4), 0: -1, 2: 1, 3: F(-1, 2)},
         2)                                     # every old key cancels
@example({0: 1, 1: F(1, 2)}, {2: 3, 0: 1, 1: F(1, 2)}, F(1))
@given(st.dictionaries(st.integers(0, 7), mixed, max_size=8),
       st.dictionaries(st.integers(0, 7), mixed, max_size=8),
       st.sampled_from(IADD_CS))
def test_vec_iadd_matches_reference(u, v, c):
    """_vec_iadd gives the u.get(i, 0) + c*x loop's values, each entry's
    type (int or Fraction) and the key order, cancellations included,
    and leaves v alone."""
    want = dict(u)
    reference.reference_vec_iadd(want, v, c)
    before = list(v.items())
    linalg._vec_iadd(u, v, c)
    assert ([(i, type(x), x) for i, x in u.items()]
            == [(i, type(x), x) for i, x in want.items()])
    assert list(v.items()) == before


@pytest.mark.parametrize("n", [0, 1, 4])
def test_kernel_of_zero_columns_needs_no_elimination(n, monkeypatch):
    """n columns with no nonzero entry have reference_kernel_basis's
    kernel, the unit vectors with Fraction entries, and kernel_basis
    builds no Echelon for them."""
    cols = [{} for _ in range(n)]
    want = reference.reference_kernel_basis(cols)

    def forbidden(*args):
        raise AssertionError("an Echelon for a zero matrix")

    monkeypatch.setattr(linalg, "Echelon", forbidden)
    got = kernel_basis(cols)
    assert items(got) == items(want)
    assert all(type(c) is Fraction for v in got for c in v.values())


# ---- one class_coords on both projectors -----------------------------------


def test_class_coords_is_none_outside_the_span():
    """Both projectors answer None for a vector outside their span and
    raise nothing; KernelCoords gives v's own entries, ints for int
    entries, and an Echelon Fractions."""
    ker = [{0: ONE}, {1: F(-2), 2: ONE}]
    kernel, echelon = KernelCoords(ker), cocycle_classes(ker, [])[2]
    for proj in (kernel, echelon):
        assert proj.class_coords({1: 1}) is None
        assert proj.class_coords({1: F(1, 3), 2: 5}) is None
    v = {0: 3, 1: -4, 2: 2}
    got = kernel.class_coords(v)
    assert [(k, type(c), c) for k, c in got.items()] == [(0, int, 3),
                                                         (1, int, 2)]
    got = echelon.class_coords(v)
    assert [(k, type(c), c) for k, c in got.items()] == [(0, F, 3), (1, F, 2)]


@pytest.mark.parametrize("projector", [
    KernelCoords([{0: ONE}]), cocycle_classes([{0: ONE}], [])[2],
], ids=["KernelCoords", "Echelon"])
def test_attach_cells_raises_on_an_image_with_no_class(projector):
    """A round raises ValueError when the image of a source class is not a
    target cocycle, whichever kind of projector the target has."""
    target = type("Target", (), {
        "cohomology": lambda self, i, m: (1, [{0: ONE}], projector),
        "d_columns": lambda self, i, m: [{}]})()
    adjoined = []
    with pytest.raises(ValueError) as exc:
        attach_cells([(1, 1)], 1, target, lambda i, m: [{0: ONE}],
                     lambda i, m, v: {1: 1},
                     lambda i, m, cells: adjoined.append(cells))
    assert str(exc.value) == "vector outside the span of reps + image"
    assert adjoined == []


# ---- attach_cells eliminates each list of class images once ----------------


def _loop_eliminations(monkeypatch, loop, run):
    """(the list each quotient_basis and kernel_basis call of loop returns,
    {id of a list: the Echelons loop builds of it}) while run() resolves
    or grows a model with loop in place of linalg.attach_cells.  A call or
    an Echelon is the loop's when its caller is loop or a function nested
    in it, so the eliminations inside quotient_basis, kernel_basis, solver
    and the source and target complexes are not counted; every list an
    Echelon is built of is kept, so no id is reused."""
    name = loop.__qualname__

    def by_loop():  # frame 1 is the callee that asks, 2 its caller
        caller = sys._getframe(2).f_code.co_qualname
        return caller == name or caller.startswith(name + ".")

    results, built, kept = [], Counter(), []

    class Counted(Echelon):
        def __init__(self, vectors=()):
            if by_loop():
                kept.append(vectors)
                built[id(vectors)] += 1
            super().__init__(vectors)

    def recorded(view):
        def call(*args):
            out = view(*args)
            if by_loop():
                results.append(out)
            return out
        return call

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "Echelon", Counted)
        for view in ("quotient_basis", "kernel_basis"):
            mp.setattr(linalg, view, recorded(getattr(linalg, view)))
        mp.setattr(linalg, "attach_cells", loop)
        assert run()
    return results, built


def _bench_resolution():
    return all(cell_resolution(_bench_dg_module(29), *BENCH_WINDOW)[2].values())


def _model(case):
    def run():
        return relative_minimal_model(
            AugmentedOverN(*MODEL_LOOP_CASES[case]()), 2, 4).certified()
    return run


@pytest.mark.parametrize("run", [
    _bench_resolution, _model("P1minus4"), _model("E4/E1"),
], ids=["bench 29", "P1minus4", "E4/E1"])
def test_attach_cells_eliminates_each_class_image_list_once(run, monkeypatch):
    """Every quotient_basis and kernel_basis call that attach_cells makes
    finds a class, where the reference loop also makes calls that find
    none; and the loop builds at most one Echelon of each list of class
    images, whose rank decides a round's two tests and the certificate."""
    results, built = _loop_eliminations(monkeypatch, attach_cells, run)
    assert results and all(results)
    assert built and set(built.values()) == {1}
    ref_results, _ = _loop_eliminations(
        monkeypatch, reference.reference_attach_cells, run)
    assert not all(ref_results)
