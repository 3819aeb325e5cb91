"""Every ParseError the reader raises, pinned to its exact message with
line and column, and the order and type of the coefficients bind_cell
stores; the reader against reference.reference_parse_text on fuzzed
files, and its memory on a long one."""

import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference
from adamsbar.parser import ParseError, bind_cell, parse_file, parse_text
from test_cli import fuzz_cdga, fuzz_gens, fuzz_polys

E1_TEXT = "cdga E1 free\ngen t deg 1 wt 1\n"

E3_TEXT = """cdga E3 free
gen x deg 1 wt 1
gen y deg 1 wt 1
gen z deg 1 wt 2
d z = 1*x*y
"""

# (id, text, message): one per raise site of a cdga or cell file
TEXT_ERRORS = [
    ("bad-character", "cdga A free\ngen x deg 1 wt 1\nd x = 2 $ x\n",
     "line 3, col 9: bad character '$'"),
    ("bad-character-quote", "cdga A free\ngen x deg 1 wt 1\nd x = 'x\n",
     "line 3, col 7: bad character \"'\""),
    ("non-ascii-character", "cdga A free\ngen xé deg 1 wt 1\n",
     "line 2, col 6: bad character 'é'"),
    ("expected-token", "cdga A free\ngen x dg 1 wt 1\n",
     "line 2, col 7: expected 'deg', got 'dg'"),
    ("end-of-line-wanted", "cdga A free\ngen x\n",
     "line 2: unexpected end of line (wanted deg)"),
    ("end-of-line", "cdga A free\ngen x deg 1 wt\n",
     "line 2: unexpected end of line (wanted more input)"),
    ("end-of-line-bare", "cdga A free\ngen\n",
     "line 2: unexpected end of line (wanted more input)"),
    ("end-of-line-head", "cdga\n",
     "line 1: unexpected end of line (wanted more input)"),
    ("trailing-input", "cdga A free extra\n",
     "line 1, col 13: trailing input 'extra'"),
    ("expected-degree", "cdga A free\ngen x deg one wt 1\n",
     "line 2, col 11: expected degree, got 'one'"),
    ("expected-weight", "cdga A free\ngen x deg 1 wt - w\n",
     "line 2, col 18: expected weight, got 'w'"),
    ("expected-rational", "cdga A free\ngen x deg 1 wt 1\nd x = * x\n",
     "line 3, col 7: expected rational, got '*'"),
    ("zero-denominator", "cdga A free\ngen x deg 1 wt 1\nd x = 1/0*x\n",
     "line 3, col 9: expected positive denominator, got '0'"),
    ("non-digit-denominator", "cdga A free\ngen x deg 1 wt 1\nd x = 1/x\n",
     "line 3, col 9: expected positive denominator, got 'x'"),
    ("undeclared-in-poly", "cdga A free\ngen x deg 1 wt 1\nd x = 1*y\n",
     "line 3, col 9: undeclared identifier 'y'"),
    ("declared-later-in-poly",
     "cdga A free\ngen x deg 1 wt 1\nd x = 1*y\ngen y deg 1 wt 1\n",
     "line 3, col 9: undeclared identifier 'y'"),
    ("undeclared-target", "cdga A free\ngen x deg 1 wt 1\nd y = 1*x\n",
     "line 3, col 3: undeclared identifier 'y'"),
    ("undeclared-aug", "cdga A free\naug x = 0\n",
     "line 2, col 5: undeclared identifier 'x'"),
    ("duplicate-generator",
     "cdga A free\ngen x deg 1 wt 1\ngen x deg 2 wt 2\n",
     "line 3, col 5: duplicate generator 'x'"),
    ("duplicate-d",
     "cdga A free\ngen t deg 1 wt 1\ngen u deg 1 wt 1\ngen v deg 1 wt 2\n"
     "d v = 1*t*u\nd v = 0\n",
     "line 6, col 3: duplicate d line for 'v'"),
    ("duplicate-aug", "cdga A free\ngen u deg 1 wt 1\naug u = 0\naug u = 0\n",
     "line 4, col 5: duplicate aug line for 'u'"),
    ("duplicate-mul",
     "cdga A table\ngen x deg 1 wt 1\ngen y deg 1 wt 1\ngen p deg 2 wt 2\n"
     "mul x y = 1*p\nmul y x = -1*p\n",
     "line 6, col 5: duplicate mul line for ('y', 'x')"),
    ("weight-below-1", "cdga A free\ngen x deg 1 wt 0\n",
     "line 2, col 5: generator 'x' has weight 0 < 1"),
    ("mul-in-free", "cdga A free\ngen x deg 1 wt 1\nmul x x = 0\n",
     "line 3, col 1: mul line in a free presentation"),
    ("mul-undeclared", "cdga A table\ngen x deg 1 wt 1\nmul x y = 0\n",
     "line 3, col 7: undeclared identifier 'y'"),
    ("mul-end-of-line", "cdga A table\nmul q\n",
     "line 2: unexpected end of line (wanted more input)"),
    ("unknown-directive-cdga", "cdga A free\ngen x deg 1 wt 1\nlet x = 1\n",
     "line 3, col 1: unknown directive 'let'"),
    ("plus-or-minus-cdga", "cdga A free\ngen x deg 1 wt 1\nd x = 1*x 2\n",
     "line 3, col 11: expected '+' or '-', got '2'"),
    # an odd square is 0, so its mul line may not say otherwise
    ("odd-square",
     "cdga A table\ngen a deg 1 wt 1\ngen c deg 2 wt 2\nmul a a = 1*c\n",
     "line 4, col 5: odd generator 'a' squares to 0"),
    ("plus-or-minus-mul",
     "cdga A table\ngen x deg 1 wt 1\ngen y deg 1 wt 1\nmul x y = 1 = 2\n",
     "line 4, col 13: expected '+' or '-', got '='"),
    ("empty", "   \n# only a comment\n\n", "line 1: empty file"),
    ("bad-file-kind", "module M over E1\n",
     "line 1: file must start with 'cdga' or 'cell', got 'module'"),
    ("bad-kind", "cdga A graded\n",
     "line 1, col 8: kind must be free or table, got 'graded'"),
    ("tab-and-comment",
     "cdga A free\ngen\tx deg 1 wt 1 # gen x\ngen  x deg 1 wt 1\n",
     "line 3, col 6: duplicate generator 'x'"),
    ("unicode-space",
     "cdga A free\ngen\xa0x deg 1 wt 1\ngen x deg 1 wt 1\n",
     "line 3, col 5: duplicate generator 'x'"),
    ("unicode-line-break", "cdga A free\x85gen x deg 1 wt 0\n",
     "line 2, col 5: generator 'x' has weight 0 < 1"),
    ("expected-over", "cell M on E1\n",
     "line 1, col 8: expected 'over', got 'on'"),
    ("duplicate-element",
     "cell M over E1\nelt b deg 0 wt 0\nelt b deg 1 wt 0\n",
     "line 3, col 5: duplicate element 'b'"),
    ("weight-below-0", "cell M over E1\nelt b deg 0 wt -1\n",
     "line 2, col 5: element 'b' has weight -1 < 0"),
    ("undeclared-element-target",
     "cell M over E1\nelt b deg 0 wt 0\nd c = 1*t b\n",
     "line 3, col 3: undeclared element 'c'"),
    ("unknown-directive-cell",
     "cell M over E1\nelt b deg 0 wt 0\ngen t deg 1 wt 1\n",
     "line 3, col 1: unknown directive 'gen'"),
]

CELL_HEAD = "cell M over E1\nelt b deg 0 wt 0\nelt c deg 0 wt 1\n"

# (id, the d line of CELL_HEAD's c, message): raised by bind_cell
BIND_ERRORS = [
    ("undeclared-element", "d c = 1*t a\n",
     "line 4, col 11: undeclared element 'a'"),
    ("undeclared-identifier", "d c = 1*s b\n",
     "line 4, col 9: undeclared identifier 's'"),
    ("plus-or-minus", "d c = 1*t b 1*t b\n",
     "line 4, col 13: expected '+' or '-', got '1'"),
    ("end-of-line", "d c = 1*t\n",
     "line 4: unexpected end of line (wanted more input)"),
    ("zero-denominator", "d c = 1/0*t b\n",
     "line 4, col 9: expected positive denominator, got '0'"),
]

# (id, file bytes, message): line ends as parse_file reads them
FILE_ERRORS = [
    ("crlf", b"cdga A free\r\ngen x deg 1 wt 1\r\n\r\ngen x deg 1 wt 1\r\n",
     "line 4, col 5: duplicate generator 'x'"),
    ("cr", b"cdga A free\rgen x deg 1 wt 1\r# c\rd x = 1*y\r",
     "line 4, col 9: undeclared identifier 'y'"),
    ("cr-crlf", b"cdga A free\r\r\ngen x deg 1 wt 0\r\n",
     "line 3, col 5: generator 'x' has weight 0 < 1"),
    ("latin1-lf", b"cdga A free\ngen x deg 1 wt 1\n# caf\xe9 au lait\n",
     "line 3, col 6: invalid UTF-8 byte 0xe9"),
    ("latin1-cr", b"cdga A free\rgen x deg 1 wt 1\r# caf\xe9 au lait\r",
     "line 3, col 6: invalid UTF-8 byte 0xe9"),
    ("latin1-line-start", b"cdga A free\r\n\xe9\n",
     "line 2, col 1: invalid UTF-8 byte 0xe9"),
]


@pytest.mark.parametrize("text, message", [c[1:] for c in TEXT_ERRORS],
                         ids=[c[0] for c in TEXT_ERRORS])
def test_parse_error_message(text, message):
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert str(exc.value) == message


def test_square_mul_lines():
    """An odd generator's mul line on itself reads when it is 0, in any
    form, and an even generator's square reads through the table."""
    _, A = parse_text("cdga A table\ngen a deg 1 wt 1\ngen b deg 2 wt 1\n"
                      "gen c deg 4 wt 2\nmul a a = 1*c - 1*c\n"
                      "mul b b = 2*c\n")
    assert A.multiply({(("a", 1),): 1}, {(("a", 1),): 1}) == {}
    assert A.multiply({(("b", 1),): 1}, {(("b", 1),): 1}) == {
        (("c", 1),): 2}


@pytest.mark.parametrize("dline, message", [c[1:] for c in BIND_ERRORS],
                         ids=[c[0] for c in BIND_ERRORS])
def test_bind_error_message(dline, message):
    _, A = parse_text(E1_TEXT)
    _, spec = parse_text(CELL_HEAD + dline)
    with pytest.raises(ParseError) as exc:
        bind_cell(spec, A)
    assert str(exc.value) == message


@pytest.mark.parametrize("data, message", [c[1:] for c in FILE_ERRORS],
                         ids=[c[0] for c in FILE_ERRORS])
def test_file_error_message(tmp_path, data, message):
    path = tmp_path / "a.cdga"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        parse_file(str(path))
    assert str(exc.value) == message


# (id, cell file over E1, message): a d with a cycle admits no strict
# filtration, and the error is at the first d line of the lowest element
# left without a stage
CYCLE_ERRORS = [
    ("two-cycle",
     "cell M over E1\nelt a deg 0 wt 0\nelt b deg 0 wt 0\n"
     "d a = 1 b\nd b = 1 a\n",
     "line 4: d of element 'a' admits no strict filtration"),
    ("cycle-above-a-stage",
     "cell M over E1\nelt a deg 0 wt 0\nelt b deg 0 wt 0\n"
     "elt c deg 0 wt 0\nelt e deg 0 wt 0\n"
     "d e = 1 c\nd c = 1 b\nd b = 1 c\nd b = 1 a\n",
     "line 8: d of element 'b' admits no strict filtration"),
]


@pytest.mark.parametrize("text, message", [c[1:] for c in CYCLE_ERRORS],
                         ids=[c[0] for c in CYCLE_ERRORS])
def test_bind_cycle_error_message(text, message):
    _, A = parse_text(E1_TEXT)
    _, spec = parse_text(text)
    with pytest.raises(ParseError) as exc:
        bind_cell(spec, A)
    assert str(exc.value) == message


def test_bind_cell_order_and_fractions():
    """An entry that cancels leaves d at once and comes back at the end;
    a monomial that cancels inside an entry does the same; each stored
    coefficient is a Fraction, 4/2 and 3 included."""
    _, A = parse_text(E3_TEXT)
    _, spec = parse_text(
        "cell K over E3\nelt a deg 0 wt 0\nelt b deg 0 wt 0\n"
        "elt c deg -1 wt 2\n"
        "d c = 1*z a + 1/2*x*y b - 1*z a + 3*z b + 4/2*x*y a"
        " - 1/2*x*y b + 1*x*y b + 0*z a\n"
        "d b = 0 a\n")
    M = bind_cell(spec, A)
    xy, z = (("x", 1), ("y", 1)), (("z", 1),)
    got = [(key, [(m, type(c), c) for m, c in entry.items()])
           for key, entry in M.differential.items()]
    assert got == [((1, 2), [(z, Fraction, 3), (xy, Fraction, 1)]),
                   ((0, 2), [(xy, Fraction, 2)])]
    assert M.filtration == [[0, 1], [2]]


@pytest.mark.parametrize("dline, message", [
    ("d c = 1*t b - 1/2*t b\n", None)] + [c[1:] for c in BIND_ERRORS],
    ids=["valid"] + [c[0] for c in BIND_ERRORS])
def test_bind_cell_twice_reads_the_spec_alike(dline, message):
    """bind_cell does not consume its spec: a second binding of a valid
    spec gives the same module, in values, types and order, and a bad
    spec raises the same ParseError twice.  The first binding used to
    leave each d line's cursor at its end, so the second raised
    'unexpected end of line' on a valid file."""
    _, A = parse_text(E1_TEXT)
    _, spec = parse_text(CELL_HEAD + dline)

    def bind():
        try:
            M = bind_cell(spec, A)
        except ParseError as e:
            return str(e)
        return M.basis, _typed(M.differential), M.filtration

    first = bind()
    assert first == (message if message else first)
    assert bind() == first


# ---- the reader against the reference reader ------------------------------

_TOKEN_TEXT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\d+|[=*+/-]")


@st.composite
def shuffled(draw, text):
    """text with its lines after the first in any order, so that a d, aug
    or mul line may come before a declaration it reads."""
    head, *body = text.splitlines()
    if draw(st.booleans()):
        body = draw(st.permutations(body))
    return "\n".join([head, *body]) + "\n"


@st.composite
def mutated(draw, text):
    """text with one token dropped, doubled, or swapped for an undeclared
    name, a name declared in the file (above or below the token, or at
    another declaration), a weight too low or a bad character."""
    a, b = draw(st.sampled_from(
        [m.span() for m in _TOKEN_TEXT.finditer(text)]))
    names = re.findall(r"^(?:gen|elt) (\S+)", text, re.M) or ["q"]
    new = draw(st.one_of(
        st.sampled_from(["", f"{text[a:b]} {text[a:b]}", "q", "0", "- 1"]),
        st.sampled_from(names), st.sampled_from(["$", "\u00e9", "'"])))
    return text[:a] + new + text[b:]


@st.composite
def reader_cases(draw):
    """(cdga file, its text unchanged, cell file over it): the cdga of
    fuzz_cdga and the cell module of fuzz_polys, each d line on any
    elements, their lines in any order, and at most one of the two files
    mutated."""
    gens = draw(fuzz_gens("g", st.integers(-1, 2), st.integers(1, 2), 3))
    base = draw(shuffled(draw(fuzz_cdga("A", gens))))
    elts = draw(fuzz_gens("e", st.integers(-1, 2), st.integers(0, 2), 3))
    cell = ["cell M over A"] + [f"elt {e} deg {d} wt {w}" for e, d, w in elts]
    names, elements = [g for g, _, _ in gens], [e for e, _, _ in elts]
    if names and elements:
        for e in draw(st.lists(st.sampled_from(elements), max_size=3)):
            cell.append(f"d {e} = {draw(fuzz_polys(names, elements))}")
    cell = draw(shuffled("\n".join(cell)))
    which = draw(st.sampled_from(["none", "cdga", "cell"]))
    text = draw(mutated(base)) if which == "cdga" else base
    if which == "cell":
        cell = draw(mutated(cell))
    return text, base, cell


def _typed(entries):
    """A dict of elements as a list, in key order, of each key with its
    terms (monomial, coefficient type, coefficient) in order."""
    return [(key, [(m, type(c), c) for m, c in el.items()])
            for key, el in entries.items()]


def _read(parse, bind, text, base, cell):
    """What one reader makes of the cdga file text and of the cell file
    over base, each part its values with their types and order or the
    ParseError it raised."""
    def cdga_parts(A):
        return (A.name, A.generators, _typed(A.differential),
                _typed(A.products), _typed(A.augmentation))

    def read_cell():
        kind, spec = parse(cell)
        if kind == "cdga":
            return cdga_parts(spec)
        M = bind(spec, parse(base)[1])
        return (spec["over"], spec["declared"], M.name, M.basis,
                _typed(M.differential), M.filtration)

    out = []
    for read in (lambda: cdga_parts(parse(text)[1]), read_cell):
        try:
            out.append(read())
        except ParseError as e:
            out.append(str(e))
    return out


@settings(max_examples=400, deadline=None)
@given(reader_cases())
def test_reader_agrees_with_the_reference_reader(case):
    """On every file of the fuzz grammar, and on each with one token
    dropped, doubled or swapped, the reader and the reference reader
    give the same algebra and cell module (generators, d, products,
    augmentation and filtration, with each coefficient's type and each
    key's order) or raise the same ParseError."""
    assert _read(parse_text, bind_cell, *case) == _read(
        reference.reference_parse_text, reference.reference_bind_cell,
        *case)


def test_a_long_free_cdga_parses_in_linear_memory():
    """2,000 generators, then one d line on each: a d line keeps no copy
    of the names declared above it, so the parse's tracemalloc peak
    stays under 16 MB, where one set per line takes about 130 MB."""
    n = 2000
    lines = ["cdga S free"] + [f"gen g{k} deg 1 wt {k + 1}" for k in range(n)]
    lines += [f"d g{k} = 1*g{(k + 1) % n}*g{(k + 2) % n}" for k in range(n)]
    tracemalloc.start()
    try:
        _, A = parse_text("\n".join(lines) + "\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(A.differential) == n
    assert peak < 16 * 2**20, peak
