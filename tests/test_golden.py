"""Golden reports: re-run fast CLI cases and compare the report bytes.

Every report under tests/golden/ was written by the CLI on the fixtures of
test_cli.py.  A change that alters any of them on purpose must say why in
CHANGES.md and re-record them:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from adamsbar.cli import main
from corpus import k_text
from test_cli import CELL_TEXT, E1_TEXT, E2_TEXT, E3_TEXT, E4_TEXT

GOLDEN = Path(__file__).parent / "golden"

# E3 and E4 with a non-integral differential: the structure maps carry a
# Fraction coefficient where the other fixtures carry only ints
E3_HALF_TEXT = E3_TEXT.replace("d z = 1*x*y", "d z = 1/2*x*y")
E4_HALF_TEXT = E4_TEXT.replace("d v = 1*t*u", "d v = 1/2*t*u")

# E4 with a weight-3 fiber generator w whose differential has both a
# fiber part u*v (so the fiber's own d is nonzero, unlike E4's) and a
# base-mixed part t*v
E4P_TEXT = E4_TEXT.replace("cdga E4 free", "cdga E4p free").replace(
    "d v = 1*t*u", "gen w deg 1 wt 3\nd v = 1*t*u\nd w = 1*u*v + 1*t*v"
) + "aug w = 0\n"

# the formal model of the line minus 3 points, augmented to Q
P3_TEXT = """cdga P1minus3 table
gen a0 deg 1 wt 1
gen a1 deg 1 wt 1
aug a0 = 0
aug a1 = 0
"""

# the formal model of the line minus 4 points
P4_TEXT = """cdga P4 table
gen a0 deg 1 wt 1
gen a1 deg 1 wt 1
gen a2 deg 1 wt 1
aug a0 = 0
aug a1 = 0
aug a2 = 0
"""

# a formal table on letters of weights 1, 1 and 3, all products zero: the
# class of the slowest colie jobs of the bench's hopf workload
F113_TEXT = """cdga F113 table
gen b deg 1 wt 1
gen c deg 1 wt 3
gen a deg 1 wt 1
"""

# a table pair: the base N3 on a0, and the total A3 over it, whose fiber
# has a1*a2 = b = d c; the two files' names differ, as a pair's may
N3_TEXT = "cdga N3 table\ngen a0 deg 1 wt 1\n"

A3_TEXT = """cdga A3 table
gen a0 deg 1 wt 1
gen a1 deg 1 wt 1
gen a2 deg 1 wt 1
gen c deg 1 wt 2
gen b deg 2 wt 2
mul a1 a2 = 1*b
d c = 1*b
aug a1 = 0
aug a2 = 0
aug c = 0
aug b = 0
"""

FIXTURES = {"e1.cdga": E1_TEXT, "e2.cdga": E2_TEXT, "e3.cdga": E3_TEXT,
            "e4.cdga": E4_TEXT, "e3_half.cdga": E3_HALF_TEXT,
            "e4_half.cdga": E4_HALF_TEXT, "e4p.cdga": E4P_TEXT,
            "p3.cdga": P3_TEXT, "p4.cdga": P4_TEXT, "k4.cdga": k_text(4),
            "f113.cdga": F113_TEXT, "n3.cdga": N3_TEXT, "a3.cdga": A3_TEXT,
            "t2.cell": CELL_TEXT}

# name -> argv; "@file" is a fixture from FIXTURES
CASES = {
    "bar-h0_e3_w4": ["bar-h0", "@e3.cdga", "--wt-max", "4"],
    "bar-h0_e3_w6": ["bar-h0", "@e3.cdga", "--wt-max", "6"],
    "bar-h0_f113_w4": ["bar-h0", "@f113.cdga", "--wt-max", "4"],
    "colie_e2_w4": ["colie", "@e2.cdga", "--wt-max", "4"],
    "colie_e2_w6": ["colie", "@e2.cdga", "--wt-max", "6"],
    "colie_e3_w4": ["colie", "@e3.cdga", "--wt-max", "4"],
    "colie_e3_half_w4": ["colie", "@e3_half.cdga", "--wt-max", "4"],
    # w6: the weights where the cobracket reads the coproduct of only a
    # few of the H^0 classes
    "colie_e3_w6": ["colie", "@e3.cdga", "--wt-max", "6"],
    # the cobracket on the line minus 4 points, the paper's object
    "colie_p4_w5": ["colie", "@p4.cdga", "--wt-max", "5"],
    # letter weights (1, 1, 3), the formal tables of the bench's hopf
    # workload whose colie jobs are the slowest
    "colie_f113_w4": ["colie", "@f113.cdga", "--wt-max", "4"],
    "quillen_e3_w3": ["quillen", "@e3.cdga", "--wt-max", "3"],
    "cohomology_a3_w4": ["cohomology", "@a3.cdga", "--wt-max", "4"],
    "cohomology_t2_e1_w3": ["cohomology", "@t2.cell", "--base", "@e1.cdga",
                            "--wt-max", "3"],
    "minimal-model_e4_e1_n2_w3": ["minimal-model", "@e4.cdga", "--base",
                                  "@e1.cdga", "--n", "2", "--wt-max", "3"],
    "minimal-model_p3_n2_w5": ["minimal-model", "@p3.cdga", "--n", "2",
                               "--wt-max", "5"],
    # the heaviest minimal-model job of the bench's models workload: its
    # stage iterations and certification are what attach_cells decides
    "minimal-model_p4_n2_w5": ["minimal-model", "@p4.cdga", "--n", "2",
                               "--wt-max", "5"],
    "kernel_e1_e4_w4": ["kernel", "--base", "@e1.cdga", "--total",
                        "@e4.cdga", "--wt-max", "4"],
    "kernel_e1_e4p_w5": ["kernel", "--base", "@e1.cdga", "--total",
                         "@e4p.cdga", "--wt-max", "5"],
    # the relative side at the size of the line minus 4 points
    "kernel_e1_k4_w4": ["kernel", "--base", "@e1.cdga", "--total",
                        "@k4.cdga", "--wt-max", "4"],
    "coaction-check_e1_e4_w3": ["coaction-check", "--base", "@e1.cdga",
                                "--total", "@e4.cdga", "--wt-max", "3"],
    "coaction-check_e1_e4_half_w3": ["coaction-check", "--base", "@e1.cdga",
                                     "--total", "@e4_half.cdga",
                                     "--wt-max", "3"],
    "coaction-check_e1_e4p_w5": ["coaction-check", "--base", "@e1.cdga",
                                 "--total", "@e4p.cdga", "--wt-max", "5"],
    "delta-approx_e2_n2_w2": ["delta-approx", "@e2.cdga", "--n", "2",
                              "--wt-max", "2"],
    "delta-approx_e4_e1_n4_w3": ["delta-approx", "@e4.cdga", "--base",
                                 "@e1.cdga", "--n", "4", "--wt-max", "3"],
    # a table pair of two names: its report was first recorded with the
    # total named as the base, when a pair was read only under one name
    "delta-approx_a3_n3_n3_w3": ["delta-approx", "@a3.cdga", "--base",
                                 "@n3.cdga", "--n", "3", "--wt-max", "3"],
    "pi1-demo_k4_w4": ["pi1-demo", "--punctures", "4", "--wt-max", "4"],
    # the pi1-demo windows of ROADMAP's table, cheap since gamma's dims are
    # read off H^0's
    "pi1-demo_k6_w6": ["pi1-demo", "--punctures", "6", "--wt-max", "6"],
    "pi1-demo_k5_w7": ["pi1-demo", "--punctures", "5", "--wt-max", "7"],
}


def run_case(name, workdir):
    """Run one case in workdir; returns (exit code, report bytes)."""
    workdir = Path(workdir)
    for fname, text in FIXTURES.items():
        (workdir / fname).write_text(text)
    out = workdir / f"{name}.json"
    argv = [str(workdir / a[1:]) if a.startswith("@") else a
            for a in CASES[name]]
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    code, got = run_case(name, tmp_path)
    assert code == 0
    assert got == (GOLDEN / f"{name}.json").read_bytes()


def test_goldens_are_the_cases():
    """tests/golden/ holds one report per case of CASES and no other, so
    no stray or uncounted golden can rot unnoticed."""
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            code, data = run_case(case, tmp)
            if code != 0:
                sys.exit(f"{case}: exit code {code}")
            (GOLDEN / f"{case}.json").write_bytes(data)
            print(f"recorded {case}")
