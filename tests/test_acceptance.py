"""Acceptance gate: the eleven headline properties, one pass/fail line
each (run with -s to see them), all in exact rational arithmetic."""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from adamsbar.bar import (
    BarComplex,
    gamma,
    h0_hopf,
)
from adamsbar.cdga import (
    CdgaPresentation, GeneratorSpec, el_gen, structure_failures, validate)
from adamsbar.cellmod import hom_group, shift, t_truncate, tate, in_heart, weight_truncate
from adamsbar.minimal import (
    augment_absolute,
    quillen_compare,
    relative_minimal_model,
    trivial_base,
)
from adamsbar.relative import (
    AugmentedOverN,
    checked_fiber,
    coaction_matrix,
    delta_approximation,
    pi1_demo,
    semidirect,
)
from corpus import (
    make_e1,
    make_e2,
    make_e3,
    make_e4,
    make_e4p,
    random_cell_module,
    random_free_cdga,
    random_gen_nilpotent,
)
from hopf_checks import all_axioms
from reference import (
    brute_force_gamma_dim,
    brute_force_h0_dim,
    lyndon_count,
    reference_coaction_split,
)

F = Fraction


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"CRITERION {num:2d} [{desc}]: FAIL")
        raise
    print(f"CRITERION {num:2d} [{desc}]: PASS")


def fixtures():
    return [make_e1(), make_e2(), make_e3(), make_e4(), make_e4p()]


def test_criterion_1_structural_soundness():
    with criterion(1, "structural soundness"):
        algebras = fixtures() + [random_free_cdga(s) for s in range(50)]
        for A in algebras:
            ok, fails = validate(A)
            assert ok, (A.name, fails)
            bar = BarComplex(A)
            for w in range(5):
                for n in range(0, 5):
                    for word in bar.slice(n, w):
                        assert bar.d_lin(bar.d_word(word)) == {}, (
                            A.name, word
                        )


def test_criterion_2_hopf_axioms():
    with criterion(2, "Hopf axioms on H^0 of the bar construction"):
        for A in fixtures():
            hopf = h0_hopf(A, 4)
            ok, fails = all_axioms(hopf)
            assert ok, (A.name, fails)


def test_criterion_3_bar_dims_vs_oracle():
    with criterion(3, "bar dimensions against the brute-force oracle"):
        hopf = h0_hopf(make_e2(), 4)
        gam = gamma(make_e2(), 4)
        for w in range(1, 5):
            assert hopf.dims()[w] == 2 ** w
            assert hopf.dims()[w] == brute_force_h0_dim(2, w)
            assert len(gam.by_weight[w]) == brute_force_gamma_dim(2, w)
        assert [len(gam.by_weight[w]) for w in range(1, 5)] == [2, 1, 2, 3]


def test_criterion_4_quillen_comparison():
    with criterion(4, "Quillen comparison of co-Lie pipelines"):
        for mk in (make_e1, make_e2, make_e3):
            ok, details = quillen_compare(mk(), 3)
            assert ok, (mk.__name__, details)


def test_criterion_5_minimal_model_certification():
    with criterion(5, "relative minimal model certified and idempotent"):
        mm = relative_minimal_model(
            AugmentedOverN(make_e1("t"), make_e4()), 2, 3)
        assert mm.certified(), mm.certification
        again = relative_minimal_model(
            AugmentedOverN(make_e1("t"), mm.model), 2, 3)
        assert again.certified()
        assert len(again.fiber_names) == len(mm.fiber_names)
        assert {(g.coh, g.adams) for g in again.model.generators} == {
            (g.coh, g.adams) for g in mm.model.generators
        }


def test_criterion_6_kernel_identification():
    with criterion(6, "kernel dimension product identity"):
        X = AugmentedOverN(make_e1("t"), make_e4())
        sd = semidirect(X, 4)
        assert sd.identity_ok
        for w in range(5):
            assert sd.total_dims[w] == sum(
                sd.base_dims[w1] * sd.kernel_dims[w - w1]
                for w1 in range(w + 1)
            )
        assert not structure_failures(X.total)


def test_criterion_7_two_coactions():
    with criterion(7, "the co-action is Gamma on E^1, as read off d_A"):
        totals = [make_e4(), make_e4p()] + [
            random_gen_nilpotent(seed) for seed in range(20)]
        for A in totals:
            X = AugmentedOverN(make_e1("t"), A)
            matrix = coaction_matrix(X, checked_fiber(X, 4)[1], 4)
            assert not structure_failures(A), (A.name, matrix)
            assert matrix == reference_coaction_split(X, 4), A.name


def test_criterion_8_t_structure_weights():
    with criterion(8, "t-structure and weight filtration"):
        A = make_e3()
        modules = [random_cell_module(A, seed) for seed in range(20)]
        for M in modules:
            ok, fails = M.check()
            assert ok, fails
            q = M.q_complex()
            weights = sorted({a for (_, _, a) in M.basis})
            # weight-truncation split exactness
            for n in range(-1, 4):
                for r in weights:
                    total = q.cohomology_dim(n, r)
                    parts = sum(
                        weight_truncate(M, w)[1].q_complex().cohomology_dim(
                            n, r
                        )
                        for w in weights
                    )
                    assert parts == total
            # heart membership vs truncation
            if in_heart(M):
                lo, hi, _ = t_truncate(M, 0)
                lo2, _, _ = t_truncate(lo, 0)
                ql = lo.q_complex()
                for c in range(-3, 4):
                    for r in weights:
                        if c != 0:
                            assert ql.cohomology_dim(c, r) == 0
                        assert hi.q_complex().cohomology_dim(c, r) == 0
        # Hom-vanishing between the two halves of the t-structure
        checked = 0
        for seed in range(30):
            M = random_cell_module(A, seed)
            N = random_cell_module(A, seed + 50)
            qm, qn = M.q_complex(), N.q_complex()
            if any(1 <= c <= 4 for c, _ in qm.cohomology_dims()) or any(
                    -4 <= c <= -1 for c, _ in qn.cohomology_dims()):
                continue
            checked += 1
            assert hom_group(M, shift(N, -1)) == 0
        assert checked >= 3
        # Tate Hom dims = H^0(A(a-b))
        for a in range(4):
            for b in range(4):
                lhs = hom_group(tate(A, a), tate(A, b))
                rhs = A.cohomology(0, a - b)[0] if a >= b else 0
                assert lhs == rhs


def test_criterion_9_stabilization():
    with criterion(9, "truncation and simplicial stabilization"):
        cases = [
            (trivial_base(), make_e1()),
            (trivial_base(), make_e2()),
            (trivial_base(), make_e3()),
            (make_e1("t"), make_e4()),
            (make_e1("t"), make_e4p()),
        ]
        w_max = 4
        for base, total in cases:
            X = AugmentedOverN(base, total)
            from adamsbar.relative import fiber_algebra

            Falg, _ = fiber_algebra(X)
            # every truncation at word length m, read off one bar complex
            trunc_by_m = BarComplex(Falg).filtered_h0(
                len, range(w_max + 7), range(w_max + 1))
            full = trunc_by_m[w_max + 6]
            for m in range(w_max + 1):
                trunc = trunc_by_m[m]
                for w in range(m, w_max + 1):
                    if w <= m:
                        assert trunc[w] == full[w], (total.name, m, w)
            rep = delta_approximation(X, w_max, w_max)
            assert not structure_failures(X.total)
            for n in range(w_max + 1):
                for w in range(n + 1):
                    assert rep["dims"][n][w] == full[w], (total.name, n, w)


def test_criterion_10_base_change():
    with criterion(10, "base change to the minimal model of the base"):
        mm = relative_minimal_model(
            AugmentedOverN(trivial_base(), augment_absolute(make_e1("t"))),
            2, 4)
        base2 = mm.model
        assert mm.certified()
        (tname,) = mm.fiber_names
        g = base2.gen[tname]
        assert (g.coh, g.adams) == (1, 1)
        for mk in (make_e4, make_e4p):
            A = mk()
            gens2 = [base2.gen[tname]] + [
                gg for gg in A.generators if gg.name != "t"
            ]
            diff2 = {
                k: {
                    tuple(
                        sorted((tname if nm == "t" else nm, e)
                               for nm, e in mono)
                    ): c
                    for mono, c in v.items()
                }
                for k, v in A.differential.items()
            }
            A2 = CdgaPresentation(A.name + "_bc", gens2, diff2,
                                  None, A.augmentation)
            X1 = AugmentedOverN(make_e1("t"), A)
            X2 = AugmentedOverN(base2, A2)
            sd1 = semidirect(X1, 4)
            sd2 = semidirect(X2, 4)
            assert sd1.kernel_dims == sd2.kernel_dims
            assert sd1.base_dims == sd2.base_dims
            assert sd1.total_dims == sd2.total_dims
            assert sd1.identity_ok and sd2.identity_ok
            assert not structure_failures(A) and not structure_failures(A2)
            m1, m2 = (coaction_matrix(X, checked_fiber(X, 4)[1], 4)
                      for X in (X1, X2))
            renamed = {
                (gn, tname if bn == "t" else bn, fn): c
                for (gn, bn, fn), c in m1.items()
            }
            assert renamed == m2


def test_criterion_11_pi1_demo():
    with criterion(11, "punctured-line pi_1 demo vs Lyndon counts"):
        for k in (2, 3, 4):
            rep = pi1_demo(k, 4)
            for w in range(1, 5):
                assert rep["gamma_dims"][w] == lyndon_count(k - 1, w), (k, w)
        assert "mock" in pi1_demo(3, 4)["note"]
