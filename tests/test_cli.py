import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from adamsbar import bar, cdga, cli, linalg
from adamsbar.cli import main
from adamsbar.parser import ParseError, bind_cell, parse_text
import reference

E1_TEXT = """cdga E1 free
gen t deg 1 wt 1
"""

E3_TEXT = """cdga E3 free
gen x deg 1 wt 1
gen y deg 1 wt 1
gen z deg 1 wt 2
d z = 1*x*y
"""

E4_TEXT = """cdga E4 free
gen t deg 1 wt 1
gen u deg 1 wt 1
gen v deg 1 wt 2
d v = 1*t*u
aug u = 0
aug v = 0
"""

E2_TEXT = """cdga E2 table
gen x0 deg 1 wt 1
gen x1 deg 1 wt 1
"""

BROKEN_TEXT = """cdga Broken free
gen x deg 1 wt 1
gen z deg 1 wt 2
d z = 1*x
"""

# a base on s, t and a total over it whose d is not a differential:
# d^2 w = d(s*v) = -s*t*u lies only in the base-mixed part, so the
# connection on the fiber bar construction is not flat
N2_TEXT = """cdga N2 free
gen s deg 1 wt 1
gen t deg 1 wt 1
"""

CURVED_TEXT = """cdga Curved free
gen s deg 1 wt 1
gen t deg 1 wt 1
gen u deg 1 wt 1
gen v deg 1 wt 2
gen w deg 1 wt 3
d v = 1*t*u
d w = 1*s*v
aug u = 0
aug v = 0
aug w = 0
"""

# a table whose d is not a derivation of its products, though d^2 = 0 on
# every generator: d(x*z) = d q = r, while d(x)*z - x*d(z) = -x*p = 0
LEIBNIZ_TEXT = """cdga T table
gen x deg 1 wt 1
gen y deg 1 wt 1
gen z deg 1 wt 2
gen p deg 2 wt 2
gen q deg 2 wt 3
gen r deg 3 wt 3
mul x y = 1*p
mul x z = 1*q
d z = 1*p
d q = 1*r
"""

LEIBNIZ_WITNESSES = ["Leibniz fails on table pair (x,z)",
                     "Leibniz fails on table pair (z,x)"]

# a table base of the same name, so that its t is declared identically in
# the total LEIBNIZ_TEXT over it, where every other generator is a fiber
T_BASE_TEXT = "cdga T table\ngen t deg 1 wt 1\n"

LEIBNIZ_TOTAL_TEXT = (
    LEIBNIZ_TEXT.replace("gen x", "gen t deg 1 wt 1\ngen x")
    + "".join(f"aug {g} = 0\n" for g in "xyzpqr"))

CELL_TEXT = """cell T2 over E1
elt b deg 0 wt 0
elt c deg 0 wt 1
d c = 1*t b
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_parse_e3_validates(capsys, tmp_path):
    f = write(tmp_path, "e3.cdga", E3_TEXT)
    code, rep = run(capsys, "validate", f)
    assert code == 0
    assert rep["verdict"] == "pass"


def test_parse_rejects_zero_weight():
    with pytest.raises(ParseError):
        parse_text("cdga A free\ngen x deg 1 wt 0\n")


def test_parse_rejects_empty():
    with pytest.raises(ParseError):
        parse_text("   \n# just a comment\n")


def test_parse_rejects_undeclared():
    with pytest.raises(ParseError):
        parse_text("cdga A free\ngen x deg 1 wt 1\nd x = 1*y\n")


def test_validate_broken_exits_1(capsys, tmp_path):
    f = write(tmp_path, "broken.cdga", BROKEN_TEXT)
    code, rep = run(capsys, "validate", f)
    assert code == 1
    assert rep["verdict"] == "fail"
    assert rep["witnesses"]


# (command, presentation text, --base text or None, expected message)
WRONG_BIDEGREE = [
    pytest.param(command, E3_TEXT.replace("1*x*y", dz), None,
                 f"d(z) has bidegree {bd}, expected (2, 2)",
                 id=f"{dz}-{command}")
    for dz, bd in (("1*x", "(1, 1)"), ("99", "(0, 0)"))
    for command in ("bar-h0", "cohomology", "colie", "quillen")
] + [
    pytest.param("minimal-model", E4_TEXT.replace("aug u = 0", "aug u = 99"),
                 E1_TEXT, "aug(u) has bidegree (0, 0), expected (1, 1)",
                 id="aug-minimal-model"),
] + [
    pytest.param(command, E2_TEXT + "mul x0 x1 = -1\n", None,
                 "x0*x1 has bidegree (0, 0), expected (2, 2)",
                 id=f"mul-{command}")
    for command in ("bar-h0", "colie", "delta-approx", "quillen")
]


@pytest.mark.parametrize("command,text,base,message", WRONG_BIDEGREE)
def test_wrong_bidegree_differential_exits_2(capsys, tmp_path, command, text,
                                            base, message):
    argv = [command, write(tmp_path, "bad.cdga", text)]
    if base is not None:
        argv += ["--base", write(tmp_path, "base.cdga", base)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    # validate reports the same fault as a failed property
    code, rep = run(capsys, "validate", argv[1])
    assert code == 1
    assert message in rep["witnesses"]


NOT_CONNECTED = "cdga N free\ngen a deg -4 wt 1\ngen b deg 5 wt 1\n"
NOT_CONNECTED_TOTAL = NOT_CONNECTED.replace("cdga N", "cdga T") + (
    "gen f deg 1 wt 1\naug f = 0\n")


@pytest.mark.parametrize("argv", [
    ["bar-h0", "@n"],
    ["colie", "@n"],
    ["quillen", "@n"],
    ["coaction-check", "--base", "@n", "--total", "@t"],
    ["minimal-model", "@t", "--base", "@n"],
    ["kernel", "--base", "@n", "--total", "@t"],
], ids=lambda argv: argv[0])
def test_class_below_degree_minus_3_exits_2(capsys, tmp_path, argv):
    # H^-4(1) = Q a: the connectivity window reaches down to the lowest
    # degree of the presentation, not a fixed -3; an absolute algebra and
    # the base of every relative command are checked by one function
    files = {"@n": write(tmp_path, "n.cdga", NOT_CONNECTED),
             "@t": write(tmp_path, "t.cdga", NOT_CONNECTED_TOTAL)}
    code = main([files.get(a, a) for a in argv] + ["--wt-max", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "algebra N not cohomologically connected" in captured.err
    assert "(-4, 1, 1)" in captured.err


# E1 with a fiber generator of degree 0: H^0(1) of the fiber is Q z
DEGREE_0_FIBER = "cdga Z free\ngen t deg 1 wt 1\ngen z deg 0 wt 1\naug z = 0\n"


@pytest.mark.parametrize("command", ["coaction-check", "kernel"])
def test_disconnected_fiber_exits_2(capsys, tmp_path, command):
    """The fiber's connectivity is an input check of both commands, though
    coaction-check builds no bar construction of the fiber."""
    code = main([command, "--base", write(tmp_path, "e1.cdga", E1_TEXT),
                 "--total", write(tmp_path, "z.cdga", DEGREE_0_FIBER),
                 "--wt-max", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Z_fiber not cohomologically connected" in captured.err


def test_validate_cell_d_squared_witness(capsys, tmp_path):
    # the extra cell e has d e = c, so d^2 e = t b
    b = write(tmp_path, "e1.cdga", E1_TEXT)
    f = write(tmp_path, "broken.cell",
              CELL_TEXT + "elt e deg -1 wt 1\nd e = 1 c\n")
    code, rep = run(capsys, "validate", "--base", b, f)
    assert code == 1
    assert rep["witnesses"] == [
        "d^2 != 0 at (k=0, j=2): {(('t', 1),): Fraction(1, 1)}"]


def test_cell_wrong_bidegree_exits_2(capsys, tmp_path):
    # d c = t b needs c of weight 1; at weight 2 the entry t has bidegree
    # (1, 1), not (1, 2), and d would leave the slice complex
    b = write(tmp_path, "e1.cdga", E1_TEXT)
    f = write(tmp_path, "bad.cell", CELL_TEXT.replace("c deg 0 wt 1",
                                                      "c deg 0 wt 2"))
    code = main(["cohomology", f, "--base", b, "--wt-max", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "entry (0,1) bidegree (1, 1)" in captured.err
    code, rep = run(capsys, "validate", f, "--base", b)
    assert code == 1
    assert rep["witnesses"] == ["entry (0,1) bidegree (1, 1)"]


def test_unknown_command_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    code = main(["validate", "/nonexistent/x.cdga"])
    assert code == 2


def test_cohomology_table(capsys, tmp_path):
    f = write(tmp_path, "e3.cdga", E3_TEXT)
    code, rep = run(capsys, "cohomology", f, "--deg-max", "2", "--wt-max", "3")
    assert code == 0
    assert rep["tables"]["0,0"] == 1
    assert rep["tables"]["1,1"] == 2
    assert "1,2" not in rep["tables"]  # dz = xy kills that class


def test_bar_h0_e2(capsys, tmp_path):
    f = write(tmp_path, "e2.cdga", E2_TEXT)
    code, rep = run(capsys, "bar-h0", f, "--wt-max", "3")
    assert code == 0
    assert rep["tables"] == {"0": 1, "1": 2, "2": 4, "3": 8}


def test_bar_h0_truncation_mismatch_fails_the_verdict(capsys, tmp_path,
                                                      monkeypatch):
    """At w <= m the truncation is the whole complex: a table that differs
    from it fails."""
    f = write(tmp_path, "e2.cdga", E2_TEXT)
    dims = bar.HopfPresentation.dims

    def broken(self):
        out = dims(self)
        out[2] += 1
        return out

    monkeypatch.setattr(bar.HopfPresentation, "dims", broken)
    code, rep = run(capsys, "bar-h0", f, "--wt-max", "3")
    assert (code, rep["verdict"]) == (1, "fail")
    assert rep["truncated"]["3"]["2"] == 4


def test_colie_e2(capsys, tmp_path):
    f = write(tmp_path, "e2.cdga", E2_TEXT)
    code, rep = run(capsys, "colie", f, "--wt-max", "4")
    assert code == 0
    assert rep["tables"] == {"1": 2, "2": 1, "3": 2, "4": 3}


@pytest.mark.parametrize("text", [
    E2_TEXT, E3_TEXT, E3_TEXT.replace("d z = 1*x*y", "d z = 1/2*x*y"),
    "cdga F table\ngen a deg 1 wt 1\ngen b deg 1 wt 1\ngen c deg 1 wt 3\n",
], ids=["e2", "e3", "e3_half", "formal113"])
def test_colie_structure_constants_are_fractions(tmp_path, monkeypatch,
                                                 text):
    """Every structure constant in the colie report is a Fraction, which
    the report writes as a string, whatever the arithmetic that made
    it."""
    reports = []
    monkeypatch.setattr(cli, "emit", lambda report, out: reports.append(
        report))
    assert main(["colie", write(tmp_path, "a.cdga", text),
                 "--wt-max", "4"]) == 0
    constants = reports[0]["structure_constants"]
    assert constants
    for cb in constants.values():
        assert all(type(c) is F for c in cb.values()), cb


def _break_gamma(monkeypatch):
    """Make every co-Lie presentation report one generator too many in
    weight 1."""
    dims = bar.CoLiePresentation.dims

    def broken(self):
        out = dims(self)
        out[1] += 1
        return out

    monkeypatch.setattr(bar.CoLiePresentation, "dims", broken)


def test_colie_wrong_gamma_fails_the_verdict(capsys, tmp_path, monkeypatch):
    """H^0 must be free on gamma: a gamma whose dims break that fails."""
    f = write(tmp_path, "e2.cdga", E2_TEXT)
    _break_gamma(monkeypatch)
    code, rep = run(capsys, "colie", f, "--wt-max", "3")
    assert (code, rep["verdict"]) == (1, "fail")


def test_pi1_demo_wrong_gamma_fails_the_verdict(capsys, monkeypatch):
    _break_gamma(monkeypatch)
    code, rep = run(capsys, "pi1-demo", "--punctures", "3", "--wt-max", "3")
    assert (code, rep["verdict"]) == (1, "fail")
    assert rep["polynomial_dims"] != rep["h0_dims"]


@pytest.mark.parametrize("count", ["h0_dims", "gamma_dims"])
def test_pi1_demo_wrong_count_fails_the_verdict(capsys, monkeypatch, count):
    """H^0_w = (k-1)^w and gamma_w = the necklace count are each part of
    the verdict: one count off by one at the top weight fails it, while
    H^0 stays free on gamma."""
    real = cli.pi1_demo

    def off_by_one(k, w_max):
        rep = real(k, w_max)
        rep[count][w_max] += 1
        if count == "h0_dims":
            rep["polynomial_dims"][w_max] += 1
        return rep

    monkeypatch.setattr(cli, "pi1_demo", off_by_one)
    code, rep = run(capsys, "pi1-demo", "--punctures", "3", "--wt-max", "3")
    assert (code, rep["verdict"]) == (1, "fail")
    assert rep["polynomial_dims"] == rep["h0_dims"]


def test_unexpected_error_exits_3(capsys, monkeypatch):
    """An error no handler names is an internal error, not a failed
    property: exit 3, with its type, message and traceback on stderr."""
    def broken(k, w_max):
        raise RuntimeError("structure map fails to commute with d at mg0")

    monkeypatch.setattr(cli, "pi1_demo", broken)
    code = main(["pi1-demo", "--punctures", "3", "--wt-max", "2"])
    err = capsys.readouterr()
    assert code == 3
    assert err.out == ""
    assert err.err.startswith("internal error: RuntimeError: structure map "
                              "fails to commute with d at mg0\n")
    assert "Traceback (most recent call last)" in err.err


def test_fault_storing_a_table_product_exits_3(capsys, tmp_path,
                                               monkeypatch):
    """The parser turns only bad input into a ParseError: a fault while it
    stores a valid mul line's product is internal, exit 3 with its
    traceback."""
    def broken(self, a, b, val):
        raise RuntimeError("product not stored")

    monkeypatch.setattr(cdga.CdgaPresentation, "set_product", broken)
    f = write(tmp_path, "e2.cdga", E2_TEXT + "mul x0 x1 = 0\n")
    code = main(["validate", f])
    err = capsys.readouterr()
    assert code == 3
    assert err.out == ""
    assert err.err.startswith(
        "internal error: RuntimeError: product not stored\n")
    assert "Traceback (most recent call last)" in err.err


# (id, base, total, message): the total's t is not the base's own t
BASE_MISMATCHES = [
    ("weight", E1_TEXT,
     "cdga T free\ngen t deg 1 wt 2\ngen u deg 1 wt 1\naug u = 0\n",
     "base generator t not declared identically in T"),
    ("differential", "cdga N free\ngen t deg 1 wt 2\n",
     "cdga T free\ngen t deg 1 wt 2\ngen u deg 1 wt 1\ngen w deg 1 wt 1\n"
     "d t = 1*u*w\naug u = 0\naug w = 0\n",
     "differential of base generator t differs"),
    ("augmentation", E1_TEXT,
     "cdga T free\ngen t deg 1 wt 1\ngen u deg 1 wt 1\naug t = 0\n"
     "aug u = 0\n",
     "base generator t must be fixed by the augmentation"),
]


@pytest.mark.parametrize("command", ["minimal-model", "kernel"])
@pytest.mark.parametrize("base, total, message",
                         [c[1:] for c in BASE_MISMATCHES],
                         ids=[c[0] for c in BASE_MISMATCHES])
def test_base_mismatch_exits_2(capsys, tmp_path, command, base, total,
                               message):
    """minimal-model checks its base as kernel does: each mismatch is an
    input error with kernel's message."""
    b = write(tmp_path, "n.cdga", base)
    f = write(tmp_path, "t.cdga", total)
    files = [f, "--base", b] if command == "minimal-model" else [
        "--base", b, "--total", f]
    code = main([command, *files, "--wt-max", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_minimal_model_command(capsys, tmp_path):
    b = write(tmp_path, "e1.cdga", E1_TEXT)
    f = write(tmp_path, "e4.cdga", E4_TEXT)
    code, rep = run(capsys, "minimal-model", f, "--base", b, "--n", "2",
                    "--wt-max", "3")
    assert code == 0
    assert rep["verdict"] == "pass"


def test_minimal_model_cap_fails_the_verdict(capsys, tmp_path, monkeypatch):
    """A stage still adding generators at its last round is reported: its
    table entry is false, the verdict fails and the exit code is 1."""
    f = write(tmp_path, "e2.cdga", E2_TEXT + "aug x0 = 0\naug x1 = 0\n")
    argv = ("minimal-model", f, "--n", "1", "--wt-max", "3")
    code, rep = run(capsys, *argv)
    assert (code, rep["verdict"]) == (0, "pass")
    monkeypatch.setattr(linalg, "STAGE_ROUNDS", 1)
    code, rep = run(capsys, *argv)
    assert (code, rep["verdict"]) == (1, "fail")
    assert rep["tables"] == {"1,1": False, "1,2": False, "1,3": False,
                             "2,1": True, "2,2": True, "2,3": True}
    assert rep["stage_iterations"] == [1, 1, 1]


def test_quillen_command(capsys, tmp_path):
    f = write(tmp_path, "e3.cdga", E3_TEXT)
    code, rep = run(capsys, "quillen", f, "--wt-max", "3")
    assert code == 0


# CURVED_TEXT without its aug lines: an absolute algebra with d^2 w != 0
CURVED_ABSOLUTE = "".join(line + "\n" for line in CURVED_TEXT.splitlines()
                          if not line.startswith("aug"))


@pytest.mark.parametrize("argv", [
    ["cohomology", "@f"],
    ["bar-h0", "@f"],
    ["colie", "@f"],
    ["quillen", "@f"],
    ["minimal-model", "@t", "--base", "@n"],
], ids=lambda argv: argv[0])
def test_curved_algebra_exits_2(capsys, tmp_path, argv):
    """A command whose verdict does not check d^2 refuses an algebra with
    d^2 w = -s*t*u != 0 before computing, naming the generator as
    cdga.d_squared_failures does; validate fails the same algebra."""
    files = {"@f": write(tmp_path, "curved.cdga", CURVED_ABSOLUTE),
             "@t": write(tmp_path, "curved-aug.cdga", CURVED_TEXT),
             "@n": write(tmp_path, "n2.cdga", N2_TEXT)}
    code = main([files.get(a, a) for a in argv] + ["--wt-max", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: Curved: d^2(w) != 0\n"
    code, rep = run(capsys, "validate", files[argv[1]])
    assert (code, rep["witnesses"]) == (1, ["d^2(w) != 0"])


@pytest.mark.parametrize("command", ["bar-h0", "colie", "quillen",
                                     "cohomology", "minimal-model"])
def test_leibniz_breaking_table_exits_2(capsys, tmp_path, command):
    """A table whose d is not a derivation of its products is not a cdga,
    though d^2 = 0 on every generator: each command whose verdict does not
    check it refuses it with validate's witnesses."""
    f = write(tmp_path, "t.cdga", LEIBNIZ_TEXT)
    code = main([command, f, "--wt-max", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: T: " + "; ".join(LEIBNIZ_WITNESSES) + "\n"
    assert cdga.d_squared_failures(parse_text(LEIBNIZ_TEXT)[1]) == []
    code, rep = run(capsys, "validate", f)
    assert (code, rep["witnesses"]) == (1, LEIBNIZ_WITNESSES)


def test_curved_base_of_minimal_model_exits_2(capsys, tmp_path):
    """minimal-model refuses a curved base before it reads whether the
    total contains the base."""
    f = write(tmp_path, "e1.cdga", E1_TEXT)
    base = write(tmp_path, "curved.cdga", CURVED_ABSOLUTE)
    code = main(["minimal-model", f, "--base", base, "--wt-max", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: Curved: d^2(w) != 0\n"


E2_XY_TEXT = "cdga E2 free\ngen x deg 1 wt 1\ngen y deg 1 wt 1\n"


def test_curved_cell_module_exits_2(capsys, tmp_path):
    """cohomology refuses a cell module with d b = y a and d c = x b, so
    d^2 c = -x*y a, with check()'s d^2 witness; validate fails it."""
    b = write(tmp_path, "e2.cdga", E2_XY_TEXT)
    f = write(tmp_path, "curved.cell",
              "cell C over E2\nelt a deg 0 wt 0\nelt b deg 0 wt 1\n"
              "elt c deg 0 wt 2\nd b = 1*y a\nd c = 1*x b\n")
    witness = "d^2 != 0 at (k=0, j=2): {(('x', 1), ('y', 1)): Fraction(-1, 1)}"
    code = main(["cohomology", f, "--base", b, "--wt-max", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: C: {witness}\n"
    code, rep = run(capsys, "validate", f, "--base", b)
    assert (code, rep["witnesses"]) == (1, [witness])


@pytest.mark.parametrize("command", ["validate", "cohomology"])
def test_curved_base_of_a_cell_module_exits_2(capsys, tmp_path, command):
    """A cell module is refused over an algebra whose d^2 != 0, by validate
    as by cohomology: its check() cannot see the algebra's own d^2."""
    b = write(tmp_path, "curved.cdga", CURVED_ABSOLUTE)
    f = write(tmp_path, "m.cell", "cell M over Curved\nelt a deg 0 wt 0\n")
    code = main([command, f, "--base", b])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: Curved: d^2(w) != 0\n"


@pytest.mark.parametrize("command", ["validate", "cohomology"])
def test_cdga_file_with_base_exits_2(capsys, tmp_path, command):
    """--base names the algebra of a cell file; a cdga file given one is
    an input error, not a base that is read and then ignored."""
    f = write(tmp_path, "e3.cdga", E3_TEXT)
    b = write(tmp_path, "e1.cdga", E1_TEXT)
    code = main([command, f, "--base", b, "--wt-max", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: line 1: a cdga file takes no --base\n"


def test_kernel_command(capsys, tmp_path):
    b = write(tmp_path, "e1.cdga", E1_TEXT)
    f = write(tmp_path, "e4.cdga", E4_TEXT)
    code, rep = run(capsys, "kernel", "--base", b, "--total", f,
                    "--wt-max", "4")
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["base_dims"] == {str(w): 1 for w in range(5)}
    for w in range(5):
        assert rep["total_dims"][str(w)] == sum(
            rep["base_dims"][str(w1)] * rep["kernel_dims"][str(w - w1)]
            for w1 in range(w + 1)
        )


def test_kernel_curved_total_fails_the_verdict(capsys, tmp_path):
    b = write(tmp_path, "n2.cdga", N2_TEXT)
    f = write(tmp_path, "curved.cdga", CURVED_TEXT)
    code, rep = run(capsys, "kernel", "--base", b, "--total", f,
                    "--wt-max", "4")
    assert (code, rep["verdict"]) == (1, "fail")


@pytest.mark.parametrize("argv", [
    ["coaction-check", "--total", "{f}"],
    ["delta-approx", "{f}"],
], ids=["coaction-check", "delta-approx"])
def test_curved_total_fails_the_verdict(capsys, tmp_path, argv):
    """d^2 w = -s*t*u != 0 on the total is refused by every command over
    it, as kernel refuses it, not certified by a check that reads only
    part of d."""
    b = write(tmp_path, "n2.cdga", N2_TEXT)
    f = write(tmp_path, "curved.cdga", CURVED_TEXT)
    code, rep = run(capsys, *[a.format(f=f) for a in argv], "--base", b,
                    "--wt-max", "4")
    assert (code, rep["verdict"]) == (1, "fail")


@pytest.mark.parametrize("command", ["kernel", "coaction-check"])
def test_curved_total_outside_the_window_fails_the_verdict(capsys, tmp_path,
                                                           command):
    """d^2 w != 0 with w of weight 3 fails kernel at --wt-max 2, as it fails
    coaction-check: both read the generators of the total, not the slices
    of weight <= 2."""
    b = write(tmp_path, "n2.cdga", N2_TEXT)
    f = write(tmp_path, "curved.cdga", CURVED_TEXT)
    code, rep = run(capsys, command, "--base", b, "--total", f,
                    "--wt-max", "2")
    assert (code, rep["verdict"]) == (1, "fail")


@pytest.mark.parametrize("command", ["kernel", "coaction-check"])
def test_leibniz_breaking_table_total_fails_the_verdict(capsys, tmp_path,
                                                        command):
    """A total whose table d is not a derivation, with d^2 = 0 on every
    generator, is not a cdga: both verdicts fail."""
    b = write(tmp_path, "t.cdga", T_BASE_TEXT)
    f = write(tmp_path, "total.cdga", LEIBNIZ_TOTAL_TEXT)
    code, rep = run(capsys, command, "--base", b, "--total", f,
                    "--wt-max", "3")
    assert (code, rep["verdict"]) == (1, "fail")


# N2 under a total whose d v has the base term s*t: the augmentation, which
# kills u and v, sends d v to s*t but d(aug v) to 0
NOT_A_CHAIN_MAP_TEXT = """cdga NotChain free
gen s deg 1 wt 1
gen t deg 1 wt 1
gen u deg 1 wt 1
gen v deg 1 wt 2
d v = 1*s*t + 1*t*u
aug u = 0
aug v = 0
"""


@pytest.mark.parametrize("command", ["kernel", "coaction-check",
                                     "delta-approx"])
def test_augmentation_not_a_chain_map_exits_2(capsys, tmp_path, command):
    """A fiber generator whose d has a term in the base alone is refused
    before computing, with validate's witness for it."""
    b = write(tmp_path, "n2.cdga", N2_TEXT)
    f = write(tmp_path, "total.cdga", NOT_A_CHAIN_MAP_TEXT)
    files = (["--total", f] if command != "delta-approx" else [f])
    code = main([command, *files, "--base", b, "--wt-max", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: augmentation not a chain map at v\n"
    code, rep = run(capsys, "validate", f)
    assert (code, rep["witnesses"]) == (
        1, ["augmentation not a chain map at v"])


def test_coaction_command(capsys, tmp_path):
    b = write(tmp_path, "e1.cdga", E1_TEXT)
    f = write(tmp_path, "e4.cdga", E4_TEXT)
    code, rep = run(capsys, "coaction-check", "--base", b, "--total", f,
                    "--wt-max", "3")
    assert code == 0
    # both keys carry the one matrix
    assert rep["coaction_split"] == rep["coaction_conn"] == {"v,t,u": "1"}


def test_delta_approx_command(capsys, tmp_path):
    f = write(tmp_path, "e2.cdga", E2_TEXT)
    code, rep = run(capsys, "delta-approx", f, "--n", "2", "--wt-max", "2")
    assert code == 0
    assert rep["stable_n"] == 2


def test_pi1_demo_command(capsys, tmp_path):
    code, rep = run(capsys, "pi1-demo", "--punctures", "3", "--wt-max", "4")
    assert code == 0
    assert rep["gamma_dims"] == {"1": 2, "2": 1, "3": 2, "4": 3}
    assert "mock" in rep["note"]


def test_pi1_demo_bad_punctures(capsys):
    code = main(["pi1-demo", "--punctures", "1", "--wt-max", "2"])
    assert code == 2


def test_cell_module_roundtrip(capsys, tmp_path):
    b = write(tmp_path, "e1.cdga", E1_TEXT)
    f = write(tmp_path, "t2.cell", CELL_TEXT)
    code, rep = run(capsys, "validate", f, "--base", b)
    assert code == 0
    code, rep = run(capsys, "cohomology", f, "--base", b, "--deg-max", "2",
                    "--wt-max", "2")
    assert code == 0
    assert rep["tables"]["0,0"] == 1


def test_cell_requires_matching_algebra(capsys, tmp_path):
    b = write(tmp_path, "e3.cdga", E3_TEXT)
    f = write(tmp_path, "t2.cell", CELL_TEXT)
    code = main(["validate", f, "--base", b])
    assert code == 2


def test_output_deterministic(capsys, tmp_path):
    f = write(tmp_path, "e3.cdga", E3_TEXT)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["colie", f, "--wt-max", "3", "--out", str(out1)]) == 0
    assert main(["colie", f, "--wt-max", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=10**20) | st.integers(max_value=-10**20),
    st.fractions(), st.text())
_KEYS = st.one_of(
    st.integers(), st.text(), st.fractions(), st.booleans(),
    st.tuples(st.integers(), st.text()),
    st.tuples(st.tuples(st.integers(), st.fractions()), st.integers()))
_REPORTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
@example({1: "int key", "1": "str key, written last, wins", (1, "a"): F(-1, 3),
          ((2, F(1, 2)), 3): [F(4), F(-7, 2)]})
@example({"caf\u00e9 \"q\"\n\\": ["\u2028\x00\t", 2**70, -(2**70)],
          "empty": [{}, [], (), ""], "flags": (True, False, None, 0, -1)})
@example([])
@example("top")
def test_report_text_matches_the_reference(report):
    """emit writes a report in one walk, with exactly the text of
    reference_report_text's two walks: the JSON-ready copy, then
    json.dumps with sorted keys and an indent of 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(report, None)
    assert out.getvalue() == reference.reference_report_text(report) + "\n"


def test_out_into_missing_directory_exits_2(capsys, tmp_path):
    """A report that cannot be written is an input error: exit 2, the
    message on stderr and nothing on stdout."""
    path = tmp_path / "missing" / "x.json"
    code = main(["pi1-demo", "--punctures", "3", "--wt-max", "2",
                 "--out", str(path)])
    err = capsys.readouterr()
    assert (code, err.out) == (2, "")
    assert err.err == ("error: [Errno 2] No such file or directory: "
                       f"{str(path)!r}\n")
    assert not path.parent.exists()


def test_fault_in_the_writer_exits_3(capsys, monkeypatch):
    """A fault while the report is written is internal: exit 3 with its
    traceback."""
    def broken(x, out, pad):
        raise RuntimeError("writer fault")

    monkeypatch.setattr(cli, "_write", broken)
    code = main(["pi1-demo", "--punctures", "3", "--wt-max", "2"])
    err = capsys.readouterr()
    assert (code, err.out) == (3, "")
    assert err.err.startswith("internal error: RuntimeError: writer fault\n")
    assert "Traceback (most recent call last)" in err.err


def test_parser_shared_across_calls(capsys, tmp_path):
    """main builds its argument parser once per process; a rejected
    command line and a call with other options in between leave the next
    report byte-identical to the first."""
    f = write(tmp_path, "e3.cdga", E3_TEXT)
    argv = ["colie", f, "--wt-max", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["colie", f, "--wt-max", "three"])
    assert exc.value.code == 2
    assert main(["delta-approx", f, "--n", "3", "--wt-max", "2"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["colie", "@e3", "--wt-max", "-1"],
    ["bar-h0", "@e3", "--wt-max", "-1"],
    ["quillen", "@e3", "--wt-max", "-1"],
    ["pi1-demo", "--punctures", "3", "--wt-max", "-1"],
    ["kernel", "--base", "@e1", "--total", "@e4", "--wt-max", "-1"],
    ["coaction-check", "--base", "@e1", "--total", "@e4", "--wt-max", "-1"],
    ["cohomology", "@e3", "--deg-max", "-1"],
    ["delta-approx", "@e3", "--n", "-1"],
    ["minimal-model", "@e4", "--base", "@e1", "--n", "0"],
    ["minimal-model", "@e4", "--base", "@e1", "--n", "-1"],
], ids=" ".join)
def test_empty_window_exits_2(capsys, tmp_path, argv):
    """A window option (the last one of argv) below its least value leaves
    nothing to compute; it exits 2 with one error line naming the option,
    not a pass with empty tables."""
    files = {"@e1": write(tmp_path, "e1.cdga", E1_TEXT),
             "@e3": write(tmp_path, "e3.cdga", E3_TEXT),
             "@e4": write(tmp_path, "e4.cdga", E4_TEXT)}
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"error: argument {argv[-2]}: must be at least" in (
        captured.err.splitlines()[-1])


def test_parse_cell_structure():
    kind, spec = parse_text(CELL_TEXT)
    assert kind == "cell"
    assert spec["name"] == "T2" and spec["over"] == "E1"
    kind, A = parse_text(E1_TEXT)
    M = bind_cell(spec, A)
    ok, fails = M.check()
    assert ok, fails
    assert M.differential == {(0, 1): {(("t", 1),): 1}}


# ---- fuzz: every command line the grammar allows exits 0, 1 or 2 ---------

FUZZ_COEFFS = ["1", "-1", "2", "1/2", "0", "-3/2"]


@st.composite
def fuzz_polys(draw, names, elements=None):
    """A polynomial of the file grammar in the generators names; with
    elements, a cell differential, each term ending in an element."""
    out = []
    for k in range(draw(st.integers(1, 3))):
        term = "*".join([draw(st.sampled_from(FUZZ_COEFFS))] + draw(
            st.lists(st.sampled_from(names), max_size=2)))
        if elements:
            term += " " + draw(st.sampled_from(elements))
        out.append(term if k == 0 else f"{draw(st.sampled_from('+-'))} {term}")
    return " ".join(out)


@st.composite
def fuzz_cdga(draw, name, gens):
    """A cdga file on gens [(name, deg, wt)], each generator with at most
    one d, aug or mul line; bidegrees and d^2 are not checked."""
    kind = draw(st.sampled_from(["free", "table"]))
    names = [g for g, _, _ in gens]
    lines = [f"cdga {name} {kind}"]
    lines += [f"gen {g} deg {d} wt {w}" for g, d, w in gens]
    for g in names:
        op = draw(st.sampled_from(["", "", "", "d", "d", "aug", "mul"]))
        if op == "mul":
            op = f"mul {g} {draw(st.sampled_from(names))}"
        elif op:
            op = f"{op} {g}"
        if op:
            lines.append(f"{op} = {draw(fuzz_polys(names))}")
    return "\n".join(lines) + "\n"


def fuzz_gens(prefix, degs, wts, most):
    return st.lists(st.tuples(degs, wts), max_size=most).map(
        lambda bds: [(f"{prefix}{i}", d, w) for i, (d, w) in enumerate(bds)])


@st.composite
def fuzz_cases(draw):
    """(argv, {file name: text}): a command on a base algebra A, a total
    algebra T over it (A's generators plus augmented fiber generators)
    and a cell module over A, each cell's d on the cells before it, with
    small windows; "@name" in argv stands for the file's path."""
    gens = draw(fuzz_gens("g", st.integers(-1, 2), st.integers(1, 2), 3))
    fiber = draw(fuzz_gens("f", st.integers(0, 2), st.integers(1, 2), 2))
    elts = draw(fuzz_gens("e", st.integers(-1, 2), st.integers(0, 2), 3))
    total = draw(fuzz_cdga("T", gens + fiber))
    cell = ["cell M over A"] + [f"elt {e} deg {d} wt {w}" for e, d, w in elts]
    for k in range(1, len(elts)):
        if gens and draw(st.booleans()):
            cell.append(f"d e{k} = " + draw(fuzz_polys(
                [g for g, _, _ in gens], [e for e, _, _ in elts[:k]])))
    files = {"a": draw(fuzz_cdga("A", gens)),
             "t": total + "".join(f"aug {f} = 0\n" for f, _, _ in fiber),
             "m": "\n".join(cell) + "\n"}
    argv = draw(st.sampled_from([
        ["validate", "@a"], ["cohomology", "@a"], ["bar-h0", "@a"],
        ["colie", "@a"], ["quillen", "@a"], ["delta-approx", "@a"],
        ["minimal-model", "@a"], ["minimal-model", "@t", "--base", "@a"],
        ["kernel", "--base", "@a", "--total", "@t"],
        ["coaction-check", "--base", "@a", "--total", "@t"],
        ["delta-approx", "@t", "--base", "@a"],
        ["validate", "@m", "--base", "@a"],
        ["cohomology", "@m", "--base", "@a"],
        ["pi1-demo", "--punctures", draw(st.sampled_from("1234"))],
    ]))
    argv += ["--wt-max", str(draw(st.integers(-1, 2)))]
    if argv[0] in ("minimal-model", "delta-approx"):
        argv += ["--n", str(draw(st.integers(-1, 2)))]
    if argv[0] == "cohomology":
        argv += ["--deg-max", str(draw(st.integers(-1, 2)))]
    return argv, files


def below_least(argv):
    """Whether a window option of argv is below its least value: 0, and 1
    for the stage count of minimal-model."""
    least = {"--wt-max": 0, "--deg-max": 0,
             "--n": 1 if argv[0] == "minimal-model" else 0}
    return any(int(v) < least[a] for a, v in zip(argv, argv[1:])
               if a in least)


@settings(max_examples=150, deadline=None)
@given(fuzz_cases())
def test_fuzz_cli_exits_0_1_or_2(case):
    """No input file of the grammar makes main raise: a bad one exits 2,
    a failed property 1.  A window option below its least value is
    rejected by argparse (SystemExit 2) before any file is read.  Windows
    are small, so each case is quick."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[f"@{name}"] = os.path.join(tmp, name)
            with open(paths[f"@{name}"], "w", encoding="utf-8") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([paths.get(a, a) for a in argv])
            except SystemExit as e:
                code = e.code
                assert below_least(argv), argv
    if below_least(argv):
        assert code == 2, argv
    assert code in (0, 1, 2)
