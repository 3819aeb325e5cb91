import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adamsbar import linalg
from adamsbar.cdga import (
    UNIT, CdgaPresentation, GeneratorSpec, el_add, el_gen, mono_factors)
from adamsbar.cellmod import (
    CellModule,
    ConnectionModule,
    FiniteDgModule,
    ModuleError,
    ScalarComplex,
    _strict_filtration,
    cell_resolution,
    hom_complex,
    hom_group,
    in_heart,
    is_finite_tate,
    shift,
    t_truncate,
    tate,
    tensor_mod,
    to_connection,
    weight_truncate,
)
from adamsbar.parser import bind_cell, parse_text
from corpus import (
    bench_cell_module,
    cell_text,
    dg_module_from_cell,
    make_e1,
    make_e2,
    make_e3,
    make_e4,
    random_cell_module,
)
from reference import (
    coarse_attach,
    dense_check_flat,
    dense_d_squared_failures,
    reference_act,
    reference_attach_cells,
    reference_cell_resolution,
    reference_cell_slice_keys,
    reference_d_element,
    reference_strict_filtration,
    reference_t_truncate,
    strictness_failures,
)

F = Fraction


def two_step_module(e1):
    """b (0,0), c (0,1) with dc = x*b over E1."""
    return CellModule(
        e1,
        [("b", 0, 0), ("c", 0, 1)],
        {(0, 1): el_gen("x")},
        [[0], [1]],
        name="T2",
    )


def test_tate_connection(e1):
    C = to_connection(tate(e1, 0))
    assert C.d0 == {} and C.gamma == {}
    ok, _ = C.check_flat()
    assert ok


def test_two_step_connection(e1):
    M = two_step_module(e1)
    ok, fails = M.check()
    assert ok, fails
    C = to_connection(M)
    assert C.d0 == {}
    assert C.gamma == {(0, 1): el_gen("x")}
    ok, fails = C.check_flat()
    assert ok, fails


def test_connection_round_trip(e1, e3):
    """d0 + Gamma, put back together, is the module's differential."""
    for M in (two_step_module(e1), random_cell_module(make_e3(), 7)):
        C = to_connection(M)
        assert C._d() == M.differential
        assert C.basis == M.basis
        assert C.twist == M.twist


@pytest.mark.parametrize("seed", range(10))
def test_random_cell_modules_valid(seed):
    M = random_cell_module(make_e3(), seed)
    ok, fails = M.check()
    assert ok, fails
    okf, _ = to_connection(M).check_flat()
    assert okf


def test_tensor_tate(e1):
    T = tensor_mod(tate(e1, 2), tate(e1, 3))
    assert T.twist == -5
    assert len(T.basis) == 1
    assert T.basis[0][1] == 0 and T.basis[0][2] == 0


@pytest.mark.parametrize("seed", range(6))
def test_tensor_hom_d_squared(seed):
    A = make_e3()
    M = random_cell_module(A, seed)
    N = random_cell_module(A, seed + 100)
    T = tensor_mod(M, N)
    ok, fails = T.check()
    assert ok, fails
    H = hom_complex(M, N)
    ok, fails = H.check()
    assert ok, fails
    assert strictness_failures(T) == strictness_failures(H) == []


def test_hom_tate(e3):
    H = hom_complex(tate(e3, 4), tate(e3, 4))
    assert len(H.basis) == 1 and H.twist == 0
    assert hom_group(tate(e3, 4), tate(e3, 4)) == 1


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3)])
def test_tate_rigidity(e3, a, b):
    # Hom(Q(-a), Q(-b)) = H^0(A(a-b))
    lhs = hom_group(tate(e3, a), tate(e3, b))
    r = a - b
    rhs = e3.cohomology(0, r)[0] if r >= 0 else 0
    assert lhs == rhs
    assert lhs == (1 if a == b else 0)


def test_weight_truncate_two_step(e1):
    M = two_step_module(e1)
    W0, gr0, Whigh = weight_truncate(M, 0)
    assert [b[0] for b in W0.basis] == ["b"]
    assert [b[0] for b in Whigh.basis] == ["c"]
    assert Whigh.differential == {}
    _, gr1, _ = weight_truncate(M, 1)
    assert [b[0] for b in gr1.basis] == ["c"]


@pytest.mark.parametrize("seed", range(8))
def test_weight_split_exactness(seed):
    M = random_cell_module(make_e3(), seed)
    q = M.q_complex()
    weights = sorted({a for (_, _, a) in M.basis})
    for n in range(-1, 4):
        for r in weights:
            total = q.cohomology_dim(n, r)
            parts = 0
            for w in weights:
                _, gr, _ = weight_truncate(M, w)
                parts += gr.q_complex().cohomology_dim(n, r)
            assert parts == total, (seed, n, r)


def test_q_functor(e1):
    assert tate(e1, 5).q_complex().cohomology_dim(0, 0) == 1
    M = two_step_module(e1)
    q = M.q_complex()
    assert q.cohomology_dim(0, 0) == 1
    assert q.cohomology_dim(0, 1) == 1  # d0 = 0


@pytest.mark.parametrize("make", [
    lambda basis, d: ScalarComplex(basis, d),
    lambda basis, d: FiniteDgModule(make_e1(), basis, d, {}),
], ids=["scalar", "finite-dg"])
def test_scalar_complex_rejects_wrong_bidegree(make):
    """d(a) = b with a at (0, 0) and b at (2, 0) is not of bidegree
    (+1, 0); it is refused, not dropped as if d were 0."""
    basis = [("a", 0, 0), ("b", 2, 0)]
    with pytest.raises(ModuleError, match=r"d entry \(1,0\) = 1 has "
                       r"bidegree \(2, 0\), expected \(1, 0\)"):
        make(basis, {(1, 0): F(1)})
    assert make(basis, {}).cohomology_dims() == {(0, 0): 1, (2, 0): 1}


def test_t_truncate_concentrated(e1):
    M = two_step_module(e1)  # degrees all 0
    low, high, hn = t_truncate(M, 0)
    assert len(low.basis) == 2 and len(high.basis) == 0
    okf, fails = to_connection(low).check_flat()
    assert okf, fails
    ok, fails = hn.check_flat()
    assert ok, fails
    # H^0 connection reproduces Gamma here (d0 = 0)
    assert len(hn.basis) == 2
    assert list(hn.gamma.values()) == [el_gen("x")]


@pytest.mark.parametrize("seed", range(8))
def test_t_truncate_random(seed):
    M = random_cell_module(make_e3(), seed)
    q = M.q_complex()
    for n in (0, 1):
        low, high, hn = t_truncate(M, n)
        ok, fails = low.check()
        assert ok, (seed, fails)
        ok, fails = high.check()
        assert ok, (seed, fails)
        assert strictness_failures(low) == strictness_failures(high) == []
        ok, fails = hn.check_flat()
        assert ok, (seed, fails)
        # q-cohomology of the triangle matches the truncation of q(M)
        for c in range(-1, 4):
            for r in sorted({a for (_, _, a) in M.basis}):
                total = q.cohomology_dim(c, r)
                lo = low.q_complex().cohomology_dim(c, r)
                hi = high.q_complex().cohomology_dim(c, r)
                if c <= n:
                    assert lo == total and hi == 0, (seed, n, c, r)
                else:
                    assert hi == total and lo == 0, (seed, n, c, r)


@pytest.mark.parametrize("seed", range(8))
def test_heart_and_double_truncation(seed):
    M = random_cell_module(make_e3(), seed)
    low, _, _ = t_truncate(M, 0)
    heart_part, _, _ = t_truncate(shift(low, -1), -1)
    # tau_{>= 0} tau_{<= 0}: shift games aside, just test the predicate
    if in_heart(M):
        lo, hi, _ = t_truncate(M, 0)
        assert len(hi.basis) == 0 or all(
            hi.q_complex().cohomology_dim(c, r) == 0
            for c in range(-1, 4)
            for r in sorted({a for (_, _, a) in M.basis})
        )
        q = lo.q_complex()
        for c in range(-3, 4):
            if c == 0:
                continue
            for r in sorted({a for (_, _, a) in lo.basis}):
                assert q.cohomology_dim(c, r) == 0



def _truncation_repr(low, high, hn):
    """Everything t_truncate returns, as comparable strings: basis,
    sorted differential, filtration, twist and name of both parts, and the
    H^n basis, twist and sorted Gamma."""
    parts = [repr((P.basis, sorted(P.differential.items()), P.filtration,
                   P.twist, P.name)) for P in (low, high)]
    return parts + [repr((hn.basis, hn.twist, sorted(hn.gamma.items())))]


@pytest.mark.parametrize("make", [make_e1, make_e2, make_e3, make_e4],
                         ids=["E1", "E2", "E3", "E4"])
def test_t_truncate_matches_reference(make):
    """tau_{<=n}, tau^{>n} and H^n(Gamma), read off one induced map, agree
    exactly with the reference's three separate constructions, at every
    degree from one below the module's lowest to one above its highest."""
    A = make()
    for seed in range(20):
        M = random_cell_module(A, seed)
        degrees = [c for (_, c, _) in M.basis]
        for n in range(min(degrees) - 1, max(degrees) + 2):
            assert _truncation_repr(*t_truncate(M, n)) == \
                _truncation_repr(*reference_t_truncate(M, n)), (seed, n)


def test_t_truncate_refuses_d_leaving_the_sub():
    """A module whose d sends a degree-0 cell onto a degree-1 cell by a
    degree-0 algebra element passes check(), but tau_{<=0} is not closed
    under d: the d0-kernel vector b0 has d b0 = x b1 outside it."""
    A = CdgaPresentation("Z", [GeneratorSpec("x", 0, 1)])
    M = CellModule(A, [("a", 0, 1), ("b", 1, 0)], {(1, 0): el_gen("x")},
                   [[1], [0]])
    assert M.check() == (True, [])
    for truncate in (t_truncate, reference_t_truncate):
        with pytest.raises(ModuleError,
                           match=r"tau_<= not closed under d at degree 0"):
            truncate(M, 0)

def test_is_finite_tate(e3):
    M = random_cell_module(make_e3(), 3)
    report = is_finite_tate(M)
    assert set(report) <= {a for (_, _, a) in M.basis}
    # q(M) splits by weight, so gr^W_w carries the weight-w part of H(qM)
    dims = M.q_complex().cohomology_dims()
    assert report == {w: {c: d for (c, r), d in dims.items() if r == w}
                      for w in report}


def test_heart_and_weights_see_every_degree(e1):
    # H^7(qM) = 1 lies outside any fixed degree window around 0
    M = CellModule(e1, [("b", 7, 0)], {})
    assert not in_heart(M)
    assert is_finite_tate(M) == {0: {7: 1}}


def test_orthogonality(e3):
    """Hom(M, N[-1]) = 0 for M with q-cohomology in degrees <= 0 and N in
    degrees >= 0 (t-structure orthogonality)."""
    A = make_e3()
    found = 0
    for seed in range(30):
        M = random_cell_module(A, seed)
        N = random_cell_module(A, seed + 50)
        qm, qn = M.q_complex(), N.q_complex()
        m_ok = not any(1 <= c <= 4 for c, _ in qm.cohomology_dims())
        n_ok = not any(-4 <= c <= -1 for c, _ in qn.cohomology_dims())
        if not (m_ok and n_ok):
            continue
        found += 1
        assert hom_group(M, shift(N, -1)) == 0, seed
    assert found >= 3


def test_cell_resolution_round_trip():
    A = make_e3()
    M = random_cell_module(A, 2)
    D = dg_module_from_cell(M)
    P, phi, cert = cell_resolution(D, -1, 3, 4)
    assert all(cert.values()), {k: v for k, v in cert.items() if not v}


# The bench's cell resolutions: modules of bench_cell_module's shape in
# the window (coh_min, coh_max, adams_max) of bench/worker.py.  Each of
# these seeds resolves with cells that have a differential, and each but
# 2 with a stage of three rounds.
BENCH_WINDOW = (-1, 4, 6)
BENCH_SEEDS = (2, 6, 11, 25, 29, 35)

# (shape, seed): random_cell_module over E3 of at most 4 or 6 cells in
# the window (-1, 3, 4), where the max_basis 6 seeds need cells with a
# differential or a stage of three rounds, and the bench-shaped modules
RESOLUTION_CASES = [(4, seed) for seed in range(12)] + [
    (6, seed) for seed in (26, 35, 38, 42)] + [
    ("bench", seed) for seed in BENCH_SEEDS]


def _bench_dg_module(seed):
    return dg_module_from_cell(bench_cell_module(seed))


@pytest.mark.parametrize("shape,seed", RESOLUTION_CASES)
def test_cell_resolution_matches_reference(shape, seed):
    """The shared cell-attaching loop gives the resolution of the
    reference loop that builds a new P every round: the same basis,
    differential, filtration, phi and certificate.  The P it returns is
    a complete cell module, whose check passes."""
    if shape == "bench":
        D, window = _bench_dg_module(seed), BENCH_WINDOW
    else:
        D = dg_module_from_cell(
            random_cell_module(make_e3(), seed, max_basis=shape))
        window = (-1, 3, 4)
    P, phi, cert = cell_resolution(D, *window)
    refP, ref_phi, ref_cert = reference_cell_resolution(D, *window)
    assert P.basis == refP.basis
    assert P.differential == refP.differential
    assert P.filtration == refP.filtration
    assert phi == ref_phi
    assert cert == ref_cert
    assert all(cert.values())
    assert P.check() == (True, [])
    assert strictness_failures(P) == []


def _assert_cached_slices_are_fresh(P):
    """Each slice P has cached (keys, index, d columns, kernel and
    cohomology) equals the same slice of a cell module built afresh on
    P's basis and differential."""
    fresh = CellModule(P.algebra, P.basis, P.differential)
    for key, keys in P._slices.items():
        assert keys == fresh.slice(*key), key
    for key, index in P._index.items():
        assert index == fresh.index(*key), key
    for key, cols in P._d.items():
        assert cols == fresh.d_columns(*key), key
    for key, ker in P._ker.items():
        assert ker == fresh.kernel(*key), key
    for (n, r), (dim, reps, proj) in P._coh.items():
        want_dim, want_reps, want_proj = fresh.cohomology(n, r)
        assert (dim, reps) == (want_dim, want_reps), (n, r)
        for v in fresh.kernel(n, r) + fresh.d_columns(n - 1, r):
            assert proj.class_coords(v) == want_proj.class_coords(v), (n, r)


def _checked_attach(monkeypatch, grown):
    """CellModule.attach, followed by the checks that its cell's keys
    come last in every slice, that every cached entry (keys, index, d
    columns, kernel, cohomology) at a bidegree the cell does not join is
    the object cached before, the cohomology one degree above a joined
    slice aside, that every cached grouping is a fresh module's
    group_keys, and that every cached entry is right.  Each growth
    appends (n, r, the lowest degree of a cached weight the cell joins)
    to grown."""
    attach = CellModule.attach

    def checked(self, name, n, r, column):
        before = {cache: dict(getattr(self, cache)) for cache in
                  ("_slices", "_index", "_d", "_ker", "_coh")}
        weights = {rr for _, rr in before["_slices"]}
        old = CellModule(self.algebra, self.basis, self.differential)
        attach(self, name, n, r, column)
        j = len(self.basis) - 1
        new = CellModule(self.algebra, self.basis, self.differential)
        joined = {(nn, rr) for rr in weights
                  for nn, keys in new.by_degree(rr).items()
                  if keys[-1][1] == j}
        for key, keys in self._slices.items():
            k = len(old.slice(*key))
            assert keys[:k] == old.slice(*key), key
            assert all(jj == j for _, jj in keys[k:]), key
        for cache, entries in before.items():
            for (nn, rr), value in entries.items():
                if (nn, rr) in joined or (
                        cache == "_coh" and (nn - 1, rr) in joined):
                    continue
                assert getattr(self, cache).get((nn, rr)) is value, (
                    cache, nn, rr)
        for rr, groups in self._groups.items():
            assert groups == new.group_keys(rr), rr
        _assert_cached_slices_are_fresh(self)
        grown.append((n, r, min((nn for nn, _ in joined), default=n)))

    monkeypatch.setattr(CellModule, "attach", checked)


@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_resolution_growth_keeps_cached_slices_right(seed, monkeypatch):
    """After every cell a resolution attaches, P's cached slices are
    those of a P built afresh, the new cell's keys come last, and the
    slices below the cell's degree or weight were kept, not rebuilt."""
    grown = []
    _checked_attach(monkeypatch, grown)
    P, _, cert = cell_resolution(_bench_dg_module(seed), *BENCH_WINDOW)
    assert len(grown) == len(P.basis) > 0
    assert all(low == n for n, _, low in grown)  # E3 has no degree < 0
    assert all(cert.values())


def test_attach_forgets_the_slices_a_cell_joins(monkeypatch):
    """Over an algebra with a generator of negative degree, a cell of
    degree n has keys of degree below n: attach forgets those slices too,
    and the cached slices stay those of a module built afresh."""
    A = CdgaPresentation("N", [GeneratorSpec("x", 1, 1),
                               GeneratorSpec("m", -1, 1)])
    P = CellModule(A, [("b", 0, 0)], {})
    window = [(n, r) for r in range(3) for n in range(-3, 4)]
    grown = []
    _checked_attach(monkeypatch, grown)
    for n, r in window:
        P.cohomology(n, r)
    P.attach("c", 1, 0, {})
    for n, r in window:
        P.cohomology(n, r)
    P.attach("e", 0, 1, {0: el_gen("x")})
    assert grown == [(1, 0, 0), (0, 1, -1)]
    assert (((("m", 1),), 1)) in P.slice(0, 1)
    assert P.filtration == [[0, 1], [2]]


def test_attach_keeps_the_slices_a_cell_over_a_degree_0_generator_misses(
        monkeypatch):
    """Over an algebra with x of bidegree (1, 1) and f of (0, 1), a cell
    of bidegree (n, r) joins the slices (n, r + k) and (n + 1, r + k + 1)
    for every k >= 0: attach forgets those, keeps the others as they
    were, and the cached slices stay those of a module built afresh."""
    A = CdgaPresentation("F", [GeneratorSpec("x", 1, 1),
                               GeneratorSpec("f", 0, 1)])
    P = CellModule(A, [("b", 0, 0)], {})
    window = [(n, r) for r in range(4) for n in range(-1, 4)]
    grown = []
    _checked_attach(monkeypatch, grown)
    for n, r in window:
        P.cohomology(n, r)
    P.attach("c", 1, 0, {})
    for n, r in window:
        P.cohomology(n, r)
    P.attach("e", 0, 1, {0: el_gen("x"), 1: el_gen("f")})
    for n, r in window:
        P.cohomology(n, r)
    assert grown == [(1, 0, 1), (0, 1, 0)]
    assert (((("f", 2),), 2)) in P.slice(0, 3)
    assert P.check() == (True, [])


def _resolve(monkeypatch, D, window, loop, attach):
    """cell_resolution of D with loop in place of linalg.attach_cells and
    attach in place of CellModule.attach: P's basis, differential and
    filtration, phi, the rounds of each stage and the certificate."""
    rounds = []

    def recording(*args):
        out = loop(*args)
        rounds.append(out[0])
        return out

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "attach_cells", recording)
        mp.setattr(CellModule, "attach", attach)
        P, phi, cert = cell_resolution(D, *window)
    return P.basis, P.differential, P.filtration, phi, rounds, cert


LOOP_CASES = [("bench", seed) for seed in BENCH_SEEDS] + [
    ("random", seed) for seed in range(20)]


@pytest.mark.parametrize("stage_rounds", [linalg.STAGE_ROUNDS, 1, 2])
@pytest.mark.parametrize("shape,seed", LOOP_CASES)
def test_resolution_matches_the_reference_loop(shape, seed, stage_rounds,
                                               monkeypatch):
    """The loop that images each list of source classes once, over a P
    that forgets only the slices a cell joins, gives the resolution of
    the loop that images every class again, over a P that forgets every
    slice of the cell's weight and degree and above: the same P, phi,
    rounds and certificate, with stages capped at one or two rounds too."""
    monkeypatch.setattr(linalg, "STAGE_ROUNDS", stage_rounds)
    if shape == "bench":
        D, window = _bench_dg_module(seed), BENCH_WINDOW
    else:
        D, window = dg_module_from_cell(
            random_cell_module(make_e3(), seed)), (-1, 3, 4)
    got = _resolve(monkeypatch, D, window, linalg.attach_cells,
                   CellModule.attach)
    assert got == _resolve(monkeypatch, D, window, reference_attach_cells,
                           coarse_attach(CellModule.attach))


def _image_calls(monkeypatch, loop, attach):
    """(image calls, {(i, m, source_reps list, rep): times imaged}) of the
    resolution of bench seed 29 with loop in place of linalg.attach_cells
    and attach in place of CellModule.attach.  A call is counted against
    the list that source_reps(i, m) last returned when its vector is one
    of that list's, and every list is kept, so no id is reused."""
    calls, imaged, kept = [0], Counter(), []

    def counting(stages, top, target, source_reps, image, adjoin):
        last = {}

        def reps(i, m):
            out = last[i, m] = source_reps(i, m)
            kept.append(out)
            return out

        def counted(i, m, v):
            calls[0] += 1
            if any(v is rep for rep in last.get((i, m), ())):
                imaged[i, m, id(last[i, m]), id(v)] += 1
            return image(i, m, v)

        return loop(stages, top, target, reps, counted, adjoin)

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "attach_cells", counting)
        mp.setattr(CellModule, "attach", attach)
        assert all(cell_resolution(_bench_dg_module(29),
                                   *BENCH_WINDOW)[2].values())
    return calls[0], imaged


def test_resolution_images_each_class_list_once(monkeypatch):
    """attach_cells images the classes of (i, m) once per list that
    source_reps(i, m) returns: no representative of a list is imaged
    twice, where the loop that re-reads every class image does, and
    there are fewer image calls in all."""
    calls, imaged = _image_calls(monkeypatch, linalg.attach_cells,
                                 CellModule.attach)
    ref_calls, ref_imaged = _image_calls(
        monkeypatch, reference_attach_cells, coarse_attach(CellModule.attach))
    assert imaged and set(imaged.values()) == {1}
    assert max(ref_imaged.values()) > 1
    assert calls < ref_calls


def test_resolution_acts_once_per_key(monkeypatch):
    """phi of each key (mono, j) of P is computed once by D.act."""
    D = _bench_dg_module(29)
    calls = []
    act = FiniteDgModule.act

    def counted(self, mono, vec):
        calls.append((mono, tuple(vec.items())))
        return act(self, mono, vec)

    monkeypatch.setattr(FiniteDgModule, "act", counted)
    P, phi, _ = cell_resolution(D, *BENCH_WINDOW)
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_act_matches_reference_at_the_vectors_support(seed):
    """act gives reference_act's values on random int and Fraction
    vectors, and reads each action matrix only at the columns of the
    vector's support, never walking a whole matrix."""
    D = _bench_dg_module(seed)
    A, rng = D.algebra, random.Random(seed)
    monos = [m for w in range(4) for ms in A.by_degree(w).values()
             for m in ms]
    vecs = [{i: rng.choice([rng.randint(-3, 3) or 1,
                            F(rng.randint(-3, 3) or 1, rng.randint(1, 4))])
             for i in rng.sample(range(len(D.basis)), rng.randint(1, 6))}
            for _ in range(20)]
    want = [[reference_act(D, m, v) for m in monos] for v in vecs]

    class Whole(dict):
        def items(self):
            raise AssertionError("an action matrix walked whole")

    read = []

    class Columns(dict):
        def get(self, j, default=None):
            read.append(j)
            return super().get(j, default)

    D.action = {g: Whole(mat) for g, mat in D.action.items()}
    D._action_by_col = {g: Columns(cols)
                        for g, cols in D._action_by_col.items()}
    for v, row in zip(vecs, want):
        for m, w in zip(monos, row):
            read.clear()
            assert D.act(m, v) == w, (m, v)
            if len(mono_factors(m)) == 1:
                assert read == list(v), (m, v)


@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_d_element_matches_reference_and_reads_memos(seed, monkeypatch):
    """d_element gives reference_d_element's values, types and key order
    on every key of weight <= 7, reading the algebra's memoized d and
    products of monomials: no apply_d or multiply call."""
    M = bench_cell_module(seed)
    A = M.algebra
    keys = [k for r in range(8) for ks in M.by_degree(r).values()
            for k in ks]
    want = [reference_d_element(M, *k) for k in keys]
    for mono, _ in keys:
        A.mono_d(mono)  # fill the memo, which multiplies on a miss

    def forbidden(*args):
        raise AssertionError("d_element went through apply_d or multiply")

    monkeypatch.setattr(A, "apply_d", forbidden)
    monkeypatch.setattr(A, "multiply", forbidden)
    assert any(want)
    for k, w in zip(keys, want):
        got = M.d_element(*k)
        assert ([(key, type(c), c) for key, c in got.items()]
                == [(key, type(c), c) for key, c in w.items()]), k


def test_attach_cells_skips_the_quotient_of_no_classes(monkeypatch):
    """A stage whose target has no class at (i, m) makes no
    quotient_basis call: with no class to hit, no closed cell is due."""
    spans = []
    quotient = linalg.quotient_basis

    def recorded(sub, vectors):
        spans.append(len(vectors))
        return quotient(sub, vectors)

    monkeypatch.setattr(linalg, "quotient_basis", recorded)
    P, _, cert = cell_resolution(_bench_dg_module(29), *BENCH_WINDOW)
    assert spans and 0 not in spans and all(cert.values())


def test_cell_resolution_cap_is_not_certified(monkeypatch):
    """With one round per stage, a stage that adds generators is still
    adding at its last round, so every stage (n, r) where P has a
    generator is not certified; at the default cap every stage is."""
    D = dg_module_from_cell(random_cell_module(make_e3(), 38, max_basis=6))
    assert all(cell_resolution(D, -1, 3, 4)[2].values())
    monkeypatch.setattr(linalg, "STAGE_ROUNDS", 1)
    P, _, cert = cell_resolution(D, -1, 3, 4)
    added = {(c, a) for _, c, a in P.basis}
    assert added
    assert not any(cert[nr] for nr in added)


def test_cell_resolution_acyclic(e3):
    from adamsbar.cellmod import FiniteDgModule

    D = FiniteDgModule(
        e3,
        [("z", 1, 2), ("xy", 2, 2)],
        {(1, 0): F(1)},
        {},
    )
    P, phi, cert = cell_resolution(D, 0, 3, 3)
    assert len(P.basis) == 0
    assert all(cert.values())


def non_square_zero_module(e3):
    """b (0,0), c (0,1), e (-1,1), f (0,2) over E3 with dc = x b, de = c,
    df = y c + z b: d^2 e = x b and d^2 f = 2 xy b."""
    return CellModule(
        e3,
        [("b", 0, 0), ("c", 0, 1), ("e", -1, 1), ("f", 0, 2)],
        {(0, 1): el_gen("x"), (1, 2): {UNIT: F(1)}, (1, 3): el_gen("y"),
         (0, 3): el_gen("z")},
    )


def test_check_reports_d_squared(e3):
    ok, fails = non_square_zero_module(e3).check()
    assert not ok
    assert fails == [
        "d^2 != 0 at (k=0, j=2): {(('x', 1),): Fraction(1, 1)}",
        "d^2 != 0 at (k=0, j=3): {(('x', 1), ('y', 1)): Fraction(2, 1)}",
    ]


def test_d_squared_witness_terms_in_dense_order(e3):
    # (k=0, j=3) gets -z*x from i=1 before -y*z from i=2, although the
    # entry (2, 3) is listed first
    M = CellModule(
        e3,
        [("b", 0, 0), ("c", 0, 1), ("e", 0, 2), ("f", 0, 3)],
        {(2, 3): el_gen("y"), (1, 3): el_gen("z"), (0, 1): el_gen("x"),
         (0, 2): el_gen("z"), (1, 2): {(("y", 1),): F(-1)}},
    )
    assert M.check()[1] == [
        "d^2 != 0 at (k=0, j=3): {(('x', 1), ('z', 1)): Fraction(1, 1), "
        "(('y', 1), ('z', 1)): Fraction(-1, 1)}",
        "d^2 != 0 at (k=1, j=3): {(('x', 1), ('y', 1)): Fraction(1, 1)}",
    ]


def test_check_flat_reports_curvature(e3):
    assert to_connection(non_square_zero_module(e3)).check_flat() == (
        False, [(0, 2), (0, 3)])
    basis = [("b", 0, 0), ("c", 0, 1), ("f", 0, 2)]
    gamma = {(0, 1): el_gen("x"), (1, 2): el_gen("y")}
    # dz = xy cancels -y*x = xy only with the coefficient -1
    for cz, expected in ((1, (False, [(0, 2)])), (-1, (True, []))):
        C = ConnectionModule(e3, basis, {}, {**gamma, (0, 2): {
            (("z", 1),): F(cz)}})
        assert C.check_flat() == expected


def _random_entries(A, rng, rows, cols, shift):
    """A few random entries (i, j) of bidegree bidegree(j) - bidegree(i) +
    (shift, 0), at positions where that slice of A is nonzero."""
    slots = []
    for i, (_, ci, ri) in enumerate(rows):
        for j, (_, cj, rj) in enumerate(cols):
            sl = A.slice(cj + shift - ci, rj - ri) if rj >= ri else []
            if sl:
                slots.append(((i, j), sl))
    entries = {}
    for _ in range(min(len(slots), rng.randint(0, 4))):
        key, sl = rng.choice(slots)
        entries[key] = el_add(entries.get(key, {}), {
            rng.choice(sl): F(rng.choice([-2, -1, 1, 3]))})
    return entries


def _perturbed(M, rng):
    """M with a few random entries of the right bidegree added to d, its
    entries in random order."""
    diff = dict(M.differential)
    for key, a in _random_entries(M.algebra, rng, M.basis, M.basis,
                                  1).items():
        diff[key] = el_add(diff.get(key, {}), a)
    # the witnesses must not depend on the order entries were given in
    items = list(diff.items())
    rng.shuffle(items)
    return CellModule(M.algebra, M.basis, dict(items), M.filtration,
                      M.twist)


def test_checks_match_dense_oracle():
    """check's witnesses are the dense d^2 oracle's, and check_flat's
    positions the dense flatness oracle's.  Each oracle, and the
    strictness oracle, which check does not read, fails on some
    perturbed module."""
    A = make_e3()
    failed = {"d^2": 0, "flat": 0, "strict": 0}
    for seed in range(60):
        rng = random.Random(seed)
        M = _perturbed(random_cell_module(A, seed, max_basis=7), rng)
        d2 = M.check()[1]
        assert d2 == dense_d_squared_failures(M, M.differential), seed
        C = to_connection(M)
        assert C.check_flat() == dense_check_flat(C), seed
        failed["d^2"] += bool(d2)
        failed["flat"] += not C.check_flat()[0]
        failed["strict"] += bool(strictness_failures(M))
    assert all(failed.values()), failed


@given(st.integers(0, 2**32), st.booleans())
def test_strict_filtration_matches_layered_reference(seed, cycle):
    """Kahn's layering gives the stages of the layer-by-layer loop on
    random entries, a cancelled entry counted as one; an entry that
    closes a cycle makes both raise ModuleError."""
    rng = random.Random(seed)
    A = make_e3()
    basis = [(f"b{j}", rng.randint(-1, 2), rng.randint(0, 3))
             for j in range(rng.randint(0, 9))]
    diff = {}
    for _ in range(3):
        diff.update(_random_entries(A, rng, basis, basis, 1))
    if diff and rng.random() < 0.5:
        diff[rng.choice(list(diff))] = {}
    if cycle and basis:
        i, j = rng.choice(list(diff)) if diff else (0, 0)
        diff[(j, i)] = {UNIT: F(1)}
        with pytest.raises(ModuleError):
            reference_strict_filtration(basis, diff)
        with pytest.raises(ModuleError):
            _strict_filtration(basis, diff)
    else:
        assert (_strict_filtration(basis, diff)
                == reference_strict_filtration(basis, diff))


@given(st.integers(0, 2**32))
def test_cell_slices_match_per_slice_walk(seed):
    """Every slice of a window, read off one walk per weight, is the
    per-slice walk's sorted list, and a nonempty slice is its degree
    group's own list."""
    A = (make_e2, make_e3)[seed % 2]()
    M = random_cell_module(A, seed, max_basis=6, deg_range=(-1, 2),
                           wt_range=(0, 3))
    for r in range(-1, 7):
        for n in range(-2, 7):
            keys = M.slice(n, r)
            assert keys == reference_cell_slice_keys(M, n, r), (n, r)
            if keys:
                assert keys is M.by_degree(r)[n]


@pytest.mark.parametrize("seed", range(8))
def test_cell_coefficients_are_fractions(seed):
    """Every coefficient out of bind_cell, hom_complex, tensor_mod and
    to_connection is a Fraction: a cell report prints a Fraction as a
    string and an int as a number, so an int would change its bytes.
    bind_cell stages a cell file's elements by _strict_filtration, so no
    entry of a parsed d breaks strictness, which check does not read."""
    A = make_e3()
    M, N = (bind_cell(parse_text(cell_text(random_cell_module(
        A, s, max_basis=5)))[1], A) for s in (seed, seed + 50))
    assert M.differential == random_cell_module(A, seed,
                                                max_basis=5).differential
    assert strictness_failures(M) == strictness_failures(N) == []
    C = to_connection(M)
    entries = [a for X in (M, N, hom_complex(M, N), tensor_mod(M, N))
               for a in X.differential.values()]
    entries += list(C.gamma.values()) + [C.d0]
    assert entries and all(type(c) is F for a in entries
                           for c in a.values())

