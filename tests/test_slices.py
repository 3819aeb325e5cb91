"""linalg.SliceComplex, the one (degree, weight)-graded complex: each of its
subclasses against the reference cohomology, and the slice caches against
a complex that grows."""

import pytest

from adamsbar.bar import BarComplex
from adamsbar.cdga import CdgaPresentation, GeneratorSpec, el_add
from adamsbar.minimal import IdealComplex, augment_absolute
from adamsbar.relative import (
    AugmentedOverN, DeltaApprox, punctured_line_model, relative_bar_h0)
from corpus import make_e1, make_e3, make_e4, make_e4p, random_cell_module
import oracles


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
        IdealComplex(augment_absolute(punctured_line_model(4))),
        [(i, m) for m in range(5) for i in range(-1, 5)]),
    "cell module": lambda: (_cell(), [(n, r) for r in range(7)
                                      for n in range(-1, 8)]),
    "q-complex": lambda: (_cell().q_complex(), [(n, r) for r in range(4)
                                                for n in range(-1, 4)]),
    "DeltaApprox E3 n3": lambda: (DeltaApprox(make_e3(), 3, 3),
                                  [(n, w) for w in range(4)
                                   for n in range(-3, 3)]),
    "relative bar E4p over E1": lambda: (
        relative_bar_h0(AugmentedOverN(make_e1("t"), make_e4p()), 4),
        [(n, w) for w in range(5) for n in range(-2, 4)]),
}


@pytest.mark.parametrize("name", COMPLEXES)
def test_slice_cohomology_matches_reference(name):
    """cohomology(n, r) of every slice has the dimension, representatives
    and class coordinates of reference_cohomology on d_columns(n, r) and
    d_columns(n - 1, r), and d(n + 1, r) d(n, r) = 0 on the cached
    columns, as d_squared_failures finds."""
    X, slices = COMPLEXES[name]()
    total = 0
    for n, r in slices:
        d_out, d_in = X.d_columns(n, r), X.d_columns(n - 1, r)
        size = len(X.slice(n, r))
        assert len(d_out) == size
        assert all(0 <= i < size for col in d_in for i in col)
        dim, reps, proj = X.cohomology(n, r)
        want_dim, want_reps, want_proj = oracles.reference_cohomology(
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
        assert X.d_squared_failures([n], [r]) == []
        total += dim
    assert total  # some slice has cohomology


def _free_xy():
    """Free on x, y of bidegree (1, 1): H^1(1) = Q^2 and H^2(2) = Q xy."""
    return CdgaPresentation("A", "free", [GeneratorSpec("x", 1, 1),
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
    ic = IdealComplex(M)
    low, high = ic.cohomology(1, 1), ic.cohomology(2, 2)
    assert (low[0], high[0]) == (2, 1)
    M.adjoin(GeneratorSpec("z", 1, 2), XY, aug={})
    ic.forget(2)
    assert ic.cohomology(1, 1) is low
    assert ic.cohomology(2, 2)[0] == 0
    assert len(ic.slice(1, 2)) == 1
