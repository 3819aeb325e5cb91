"""linalg.SliceComplex, the one (degree, weight)-graded complex: each of its
subclasses against the reference cohomology, the slice caches against a
complex that grows, and the keys grouped once per weight against the
per-slice enumeration."""

import pytest

from adamsbar.bar import BarComplex
from adamsbar.cdga import CdgaPresentation, GeneratorSpec, el_add
from adamsbar.linalg import Echelon, KernelCoords
from adamsbar.minimal import (IdealComplex, augment_absolute,
                              relative_minimal_model, trivial_base)
from adamsbar.relative import (
    AugmentedOverN, fiber_algebra, punctured_line_model)
from corpus import (
    make_e1, make_e2, make_e3, make_e4, make_e4p, random_cell_module,
    random_free_cdga, random_gen_nilpotent)
import reference


def _cell():
    M = random_cell_module(make_e3(), 5, max_basis=4)
    assert M.differential
    return M


# name -> (complex, its slices (n, r)); every range reaches past the
# nonzero slices on both sides
COMPLEXES = {
    "E3": lambda: (make_e3(), [(n, r) for r in range(5)
                               for n in range(-1, 6)]),
    "E4": lambda: (make_e4(), [(n, r) for r in range(5)
                               for n in range(-1, 6)]),
    "bar E3": lambda: (BarComplex(make_e3()), [(n, w) for w in range(5)
                                               for n in range(-2, 4)]),
    "ideal P1minus4": lambda: (
        IdealComplex(punctured_line_model(4),
                     {f"a{i}": {} for i in range(3)}),
        [(i, m) for m in range(5) for i in range(-1, 5)]),
    "cell module": lambda: (_cell(), [(n, r) for r in range(7)
                                      for n in range(-1, 8)]),
    "q-complex": lambda: (_cell().q_complex(), [(n, r) for r in range(4)
                                                for n in range(-1, 4)]),
    "DeltaApprox E3 n3": lambda: (reference.DeltaApprox(make_e3(), 3),
                                  [(n, w) for w in range(4)
                                   for n in range(-3, 3)]),
}


@pytest.mark.parametrize("name", COMPLEXES)
def test_slice_cohomology_matches_reference(name):
    """cohomology(n, r) of every slice has the dimension, representatives
    and class coordinates of reference_cohomology on d_columns(n, r) and
    d_columns(n - 1, r), and d(n + 1, r) d(n, r) = 0 on the cached
    columns."""
    X, slices = COMPLEXES[name]()
    total = 0
    for n, r in slices:
        d_out, d_in = X.d_columns(n, r), X.d_columns(n - 1, r)
        size = len(X.slice(n, r))
        assert len(d_out) == size
        assert all(0 <= i < size for col in d_in for i in col)
        dim, reps, proj = X.cohomology(n, r)
        want_dim, want_reps, want_proj = reference.reference_cohomology(
            d_out, d_in)
        assert dim == want_dim == len(reps), (n, r)
        assert [list(v.items()) for v in reps] == [
            list(v.items()) for v in want_reps], (n, r)
        for v in X.kernel(n, r) + d_in:
            assert proj.class_coords(v) == want_proj.class_coords(v), (n, r)
        nxt = X.d_columns(n + 1, r)
        for col in X.d_columns(n, r):
            acc = {}
            for i, c in col.items():
                acc = el_add(acc, nxt[i], c)
            assert not acc, (n, r)
        total += dim
    assert total  # some slice has cohomology


@pytest.mark.parametrize("name", COMPLEXES)
def test_empty_slice_cohomology_reads_no_neighbour(name):
    """The cohomology of an empty slice is (0, [], a projector that
    accepts only 0), read without the index of the slice above or d into
    or out of it."""
    X, slices = COMPLEXES[name]()
    empty = [(n, r) for n, r in slices if not X.slice(n, r)]
    assert empty
    for n, r in empty:
        dim, reps, proj = X.cohomology(n, r)
        assert (dim, reps) == (0, []), (n, r)
        assert proj.class_coords({}) == {}
        assert proj.class_coords({0: 1}) is None
        assert (n + 1, r) not in X._index, (n, r)
        assert (n, r) not in X._d and (n - 1, r) not in X._d, (n, r)


@pytest.mark.parametrize("name", COMPLEXES)
def test_d_into_an_empty_slice_calls_no_d_key(name, monkeypatch):
    """d into an empty slice is one {} per key, built with no d_key call
    and no index of the empty slice; some nonempty slice of each complex
    has an empty slice above it."""
    X, slices = COMPLEXES[name]()

    def raising(n, r, key):
        raise AssertionError(f"d_key called on slice {(n, r)}")

    monkeypatch.setattr(X, "d_key", raising)
    keys = 0
    for n, r in slices:
        if not X.slice(n + 1, r):
            assert X.d_columns(n, r) == [{}] * len(X.slice(n, r)), (n, r)
            assert (n + 1, r) not in X._index, (n, r)
            keys += len(X.slice(n, r))
    assert keys


def test_empty_kernel_cohomology_builds_no_d_into_it():
    """A nonempty slice whose kernel is empty has no cohomology, read
    without building d(n - 1, r), on every complex above.  Each weight is
    walked down in degree, so no earlier slice has asked for d(n - 1, r)
    yet; four of the complexes have such a slice in their range."""
    seen = {}
    for name, make in COMPLEXES.items():
        X, slices = make()
        for n, r in sorted(slices, key=lambda s: (s[1], -s[0])):
            if X.slice(n, r) and not X.kernel(n, r):
                assert (n - 1, r) not in X._d, (name, n, r)
                dim, reps, proj = X.cohomology(n, r)
                assert (dim, reps) == (0, []), (name, n, r)
                assert proj.class_coords({}) == {}
                assert (n - 1, r) not in X._d, (name, n, r)
                seen[name] = seen.get(name, 0) + 1
            X.cohomology(n, r)
    assert len(seen) == 4, seen


def _free_xy():
    """Free on x, y of bidegree (1, 1): H^1(1) = Q^2 and H^2(2) = Q xy."""
    return CdgaPresentation("A", [GeneratorSpec("x", 1, 1),
                                  GeneratorSpec("y", 1, 1)])


XY = {(("x", 1), ("y", 1)): 1}


def test_adjoin_forgets_only_slices_of_its_weight_and_above():
    """z of weight 2 with dz = xy kills the class of xy in H^2(2); the
    weight-1 answer cached before adjoin is kept as the same object."""
    A = _free_xy()
    low, high = A.cohomology(1, 1), A.cohomology(2, 2)
    assert (low[0], high[0]) == (2, 1)
    A.adjoin(GeneratorSpec("z", 1, 2), XY)
    assert A.cohomology(1, 1) is low
    assert A.cohomology(2, 2)[0] == 0
    assert (("z", 1),) in A.slice(1, 2)


def test_ideal_forget_drops_only_slices_of_its_weight_and_above():
    """The same on the augmentation ideal: after z joins the algebra,
    forget(2) recomputes weight 2 and keeps the weight-1 answer."""
    M = augment_absolute(_free_xy())
    ic = IdealComplex(M, M.augmentation)
    low, high = ic.cohomology(1, 1), ic.cohomology(2, 2)
    assert (low[0], high[0]) == (2, 1)
    M.adjoin(GeneratorSpec("z", 1, 2), XY, aug={})
    ic.forget(2)
    assert ic.cohomology(1, 1) is low
    assert ic.cohomology(2, 2)[0] == 0
    assert len(ic.slice(1, 2)) == 1


def test_cohomology_reads_the_kernel_where_no_d_comes_in():
    """H^1(1) of E3 has no incoming d: its representatives are the kernel
    and its projector is their KernelCoords.  H^2(2) has d z = xy coming
    in, and still goes through cocycle_classes."""
    A = make_e3()
    dim, reps, proj = A.cohomology(1, 1)
    assert not any(A.d_columns(0, 1))
    assert isinstance(proj, KernelCoords)
    assert dim == 2 and reps == A.kernel(1, 1)
    dim, reps, proj = A.cohomology(2, 2)
    assert any(A.d_columns(1, 2))
    assert isinstance(proj, Echelon)
    assert (dim, reps) == (0, [])
    assert proj.class_coords(A.d_columns(1, 2)[0]) == {}


def _two_groups():
    """Two groups of generators: a table of odd, even and zero degree,
    and free generators of odd, even, zero and negative degree."""
    return CdgaPresentation("T2", [
        GeneratorSpec("x0", 1, 1, table=True),
        GeneratorSpec("x1", 1, 1, table=True),
        GeneratorSpec("y", 2, 2, table=True),
        GeneratorSpec("p", 1, 1, table=True),
        GeneratorSpec("q", 0, 2, table=True),
        GeneratorSpec("s", 2, 1),
        GeneratorSpec("o", 1, 2),
        GeneratorSpec("n", -1, 1),
        GeneratorSpec("f", 0, 1)])


def _mixed_free():
    """A free algebra on odd and even generators, of degree 0 and of
    negative degree among them, and of weights 1 to 3."""
    return CdgaPresentation("M", [
        GeneratorSpec("a", 1, 1), GeneratorSpec("b", 2, 1),
        GeneratorSpec("k", 0, 1), GeneratorSpec("d", -1, 2),
        GeneratorSpec("e", -2, 1), GeneratorSpec("f", 3, 3),
        GeneratorSpec("g", 0, 2)])


ALGEBRAS = {
    "E1": make_e1, "E2": make_e2, "E3": make_e3, "E4": make_e4,
    "E4p": make_e4p, "two groups": _two_groups, "mixed free": _mixed_free,
    **{f"GN{seed}": lambda seed=seed: random_gen_nilpotent(seed)
       for seed in range(6)},
}


def _degrees(A, r):
    """A degree range that reaches past every monomial of weight r."""
    coh = [g.coh for g in A.generators] or [0]
    return range(min(0, r * min(coh)) - 1, max(0, r * max(coh)) + 2)


def _assert_slices_match_reference(A, weights):
    """slice(n, r) equals reference_slice_keys in values and order, and
    each nonempty slice is the group's own list."""
    for r in weights:
        groups = A.by_degree(r)
        for n in _degrees(A, r):
            keys = A.slice(n, r)
            assert keys == reference.reference_slice_keys(A, n, r), (n, r)
            if keys:
                assert keys is groups[n], (n, r)
        assert all(groups[n] for n in groups), r


@pytest.mark.parametrize("name", ALGEBRAS)
def test_grouped_slices_match_per_slice_walk(name):
    A = ALGEBRAS[name]()
    _assert_slices_match_reference(A, range(-1, 6))


@pytest.mark.parametrize("seed", range(50))
def test_grouped_slices_of_random_free_cdgas_match_per_slice_walk(seed):
    _assert_slices_match_reference(random_free_cdga(seed), range(-1, 6))


@pytest.mark.parametrize("k,n,w", [(4, 2, 4), (5, 1, 5)])
def test_grouped_slices_of_growing_models_match_per_slice_walk(
        k, n, w, monkeypatch):
    """Every grouping that relative_minimal_model walks on the model of
    the line minus k points, as the model grows, equals the per-slice
    walk, and so does each weight of the model it returns."""
    group_keys, walked = CdgaPresentation.group_keys, []

    def checked(self, r):
        groups = group_keys(self, r)
        if self.name.endswith("_min"):
            for nn in _degrees(self, r):
                assert groups.get(nn, []) == reference.reference_slice_keys(
                    self, nn, r), (nn, r)
            walked.append(r)
        return groups

    monkeypatch.setattr(CdgaPresentation, "group_keys", checked)
    A = augment_absolute(punctured_line_model(k))
    mm = relative_minimal_model(AugmentedOverN(trivial_base(), A), n, w)
    assert set(walked) == set(range(1, w + 1)) and len(walked) > w
    _assert_slices_match_reference(mm.model, range(w + 2))


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_adjoin_rereads_the_grouping_at_its_weight_and_above(name, m):
    """After adjoin of a generator of weight m, the slices below m are the
    objects read before it, and those at m and above are read again and
    hold the new generator's monomials."""
    A = ALGEBRAS[name]()
    weights = range(6)
    before = {(n, r): A.slice(n, r) for r in weights for n in _degrees(A, r)}
    A.adjoin(GeneratorSpec("c", 1, m), aug={} if A.augmentation else None)
    for (n, r), keys in before.items():
        if r < m:
            assert A.slice(n, r) is keys, (n, r)
    assert (("c", 1),) in A.slice(1, m)
    _assert_slices_match_reference(A, weights)


DELTA_CASES = [(mk, n) for mk in (make_e3, make_e4p) for n in range(5)]


@pytest.mark.parametrize("mk,n", DELTA_CASES,
                         ids=[f"{mk.__name__}-n{n}" for mk, n in DELTA_CASES])
def test_delta_keys_match_per_degree_filter(mk, n):
    """The keys of every DeltaApprox slice, grouped once per weight, equal
    the per-degree filter over its words, in values and order."""
    A = mk()
    if A.augmentation:
        A = fiber_algebra(AugmentedOverN(make_e1("t"), A))[0]
    da = reference.DeltaApprox(A, n)
    for w in range(4):
        for deg in range(-n - 2, 3 * w + 2):
            assert da.slice(deg, w) == reference.reference_delta_keys(
                da, deg, w), (deg, w)
