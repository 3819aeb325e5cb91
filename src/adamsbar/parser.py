"""Text format for algebra and cell-module presentations.

One definition per file:

    cdga <name> (free|table)
    gen <ident> deg <int> wt <posint>
    d <ident> = <poly>
    mul <ident> <ident> = <poly>      # table kind only
    aug <ident> = <poly>              # relative use; default 0

    cell <name> over <cdga-name>
    elt <ident> deg <int> wt <int>
    d <ident> = <coeff-poly> <ident> [('+'|'-') <coeff-poly> <ident>]*

poly: term (('+'|'-') term)*;  term: rational ['*' ident ('*' ident)*];
rational: int ['/' posint].  Every identifier must be declared before
use; errors carry line and column numbers.

parse_file decodes the file's bytes as UTF-8, and each line is split into
(token, column) pairs by one regex pass before any of it is parsed.  A
rational of denominator 1 is read as an int.  One reader, _signed_terms,
reads every signed sum, a cdga's poly and a cell module's d alike: a cdga
adds its terms up and keeps the ints, so the structure maps of an
integral presentation compute with ints; bind_cell reads each term's
element, adds the terms up in place with the same ints and stores each
coefficient of its d as one Fraction.  Bad input leaves the parser only
as a ParseError; any other exception is a fault of the program.  A byte
that is not UTF-8 is a ParseError at its line and column.
"""

import re
from fractions import Fraction

from .cdga import CdgaPresentation, GeneratorSpec, UNIT
from .cellmod import CellModule, FiltrationError, _strict_filtration
from .linalg import _vec_iadd

F = Fraction

# group 1 is a token; a character outside it starts no token, an error
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|\d+|[=*+/-])|\S")


class ParseError(Exception):
    def __init__(self, msg, line, col=None):
        at = f"line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(f"{at}: {msg}")
        self.line = line
        self.col = col


def _tokens(text, lineno):
    """The (token, column) pairs of a line, in one regex pass; whitespace
    only separates tokens."""
    out = []
    for m in _TOKEN.finditer(text):
        tok = m[1]
        if tok is None:
            raise ParseError(f"bad character {m[0]!r}", lineno, m.start() + 1)
        out.append((tok, m.start() + 1))
    return out


class _Cursor:
    def __init__(self, toks, lineno):
        self.toks = toks
        self.i = 0
        self.lineno = lineno

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self, expect=None):
        if self.i >= len(self.toks):
            raise ParseError(
                f"unexpected end of line (wanted {expect or 'more input'})",
                self.lineno,
            )
        tok, col = self.toks[self.i]
        self.i += 1
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}", self.lineno, col)
        return tok, col

    def done(self):
        if self.i < len(self.toks):
            tok, col = self.toks[self.i]
            raise ParseError(f"trailing input {tok!r}", self.lineno, col)


def _parse_int(cur, what):
    tok, col = cur.next(expect=None)
    neg = False
    if tok == "-":
        neg = True
        tok, col = cur.next()
    if not tok.isdigit():
        raise ParseError(f"expected {what}, got {tok!r}", cur.lineno, col)
    return -int(tok) if neg else int(tok)


def _parse_rational(cur):
    """The rational as an int when its denominator is 1, else as a
    Fraction."""
    val = _parse_int(cur, "rational")
    if cur.peek() == "/":
        cur.next()
        tok, col = cur.next()
        if not tok.isdigit() or int(tok) == 0:
            raise ParseError(
                f"expected positive denominator, got {tok!r}", cur.lineno, col
            )
        val = F(val, int(tok))
        if val.denominator == 1:
            val = val.numerator
    return val


def _declared(cur, declared, what="identifier"):
    """The next token, a name that must be in declared."""
    tok, col = cur.next()
    if tok not in declared:
        raise ParseError(f"undeclared {what} {tok!r}", cur.lineno, col)
    return tok


def _declaration(cur, declared, what, least):
    """(name, degree, weight) of a `name deg n wt w` line: the name is new
    and w >= least, else the error is at the name's column."""
    name, col = cur.next()
    if name in declared:
        raise ParseError(f"duplicate {what} {name!r}", cur.lineno, col)
    cur.next(expect="deg")
    deg = _parse_int(cur, "degree")
    cur.next(expect="wt")
    wt = _parse_int(cur, "weight")
    cur.done()
    if wt < least:
        raise ParseError(f"{what} {name!r} has weight {wt} < {least}",
                         cur.lineno, col)
    return name, deg, wt


def _signed_terms(cur, declared, A):
    """Each term of a signed sum that runs to the end of the line, with its
    sign, as an element normalized in the algebra A: an optional leading
    '-', then term (('+'|'-') term)*.  The caller may read on after each
    term (bind_cell reads its element) before it asks for the next."""
    sign = 1
    if cur.peek() == "-":
        cur.next()
        sign = -1
    while True:
        coeff = _parse_rational(cur)
        names = []
        while cur.peek() == "*":
            cur.next()
            names.append(_declared(cur, declared))
        term = {UNIT: sign * coeff}
        for name in names:
            term = A.multiply(term, {((name, 1),): 1})
        yield term
        nxt = cur.peek()
        if nxt is None:
            return
        if nxt not in ("+", "-"):
            tok, col = cur.toks[cur.i]
            raise ParseError(f"expected '+' or '-', got {tok!r}",
                             cur.lineno, col)
        cur.next()
        sign = 1 if nxt == "+" else -1


def _parse_poly(cur, declared, A):
    """The sum of _signed_terms: a polynomial normalized in the algebra A."""
    out = {}
    for term in _signed_terms(cur, declared, A):
        _vec_iadd(out, term, 1)
    return out


def parse_text(text):
    """Parse a presentation file.

    Returns ("cdga", CdgaPresentation) or ("cell", cell-spec dict); bind
    the latter to its algebra with bind_cell.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw.split("#", 1)[0], lineno)
        if toks:
            lines.append((lineno, toks))
    if not lines:
        raise ParseError("empty file", 1)
    head_line, head = lines[0]
    kind_tok = head[0][0]
    if kind_tok == "cdga":
        return "cdga", _parse_cdga(lines)
    if kind_tok == "cell":
        return "cell", _parse_cell(lines)
    raise ParseError(
        f"file must start with 'cdga' or 'cell', got {kind_tok!r}", head_line
    )


def _parse_cdga(lines):
    cur = _Cursor(lines[0][1], lines[0][0])
    cur.next(expect="cdga")
    name, _ = cur.next()
    kind, col = cur.next()
    if kind not in ("free", "table"):
        raise ParseError(f"kind must be free or table, got {kind!r}",
                         cur.lineno, col)
    cur.done()
    group = name if kind == "table" else None
    gens = []
    declared = set()
    # mul lines and d/aug lines, each with its cursor and the names
    # declared above it; their sums are read once every generator exists
    products, maps = [], []
    for lineno, toks in lines[1:]:
        cur = _Cursor(toks, lineno)
        op, col = cur.next()
        if op == "gen":
            gname, deg, wt = _declaration(cur, declared, "generator", 1)
            gens.append(GeneratorSpec(gname, deg, wt, group=group))
            declared.add(gname)
        elif op in ("d", "aug"):
            target = _declared(cur, declared)
            cur.next(expect="=")
            maps.append((op, target, cur, set(declared)))
        elif op == "mul":
            if kind != "table":
                raise ParseError("mul line in a free presentation", lineno, col)
            # both names are read before either is checked, so a line
            # that ends early reports its end
            names = _Cursor([cur.next(), cur.next()], lineno)
            pair = _declared(names, declared), _declared(names, declared)
            cur.next(expect="=")
            products.append((pair, cur, set(declared)))
        else:
            raise ParseError(f"unknown directive {op!r}", lineno, col)
    A = CdgaPresentation(name, kind, gens)
    # products first, so later polynomials normalize through the table
    for pair, cur, seen in products:
        A.set_product(*pair, _parse_poly(cur, seen, A))
    differential, augmentation = {}, {}
    for op, target, cur, seen in maps:
        val = _parse_poly(cur, seen, A)
        if op == "aug":
            augmentation[target] = val
        elif val:
            differential[target] = val
    return CdgaPresentation(name, kind, gens, differential, A.products,
                            augmentation)


def _parse_cell(lines):
    cur = _Cursor(lines[0][1], lines[0][0])
    cur.next(expect="cell")
    name, _ = cur.next()
    cur.next(expect="over")
    over, _ = cur.next()
    cur.done()
    elts = []
    declared = {}
    dlines = []
    for lineno, toks in lines[1:]:
        cur = _Cursor(toks, lineno)
        op, col = cur.next()
        if op == "elt":
            elt = _declaration(cur, declared, "element", 0)
            declared[elt[0]] = len(elts)
            elts.append(elt)
        elif op == "d":
            target = _declared(cur, declared, "element")
            cur.next(expect="=")
            dlines.append((target, cur))
        else:
            raise ParseError(f"unknown directive {op!r}", lineno, col)
    return {"name": name, "over": over, "elts": elts, "declared": declared,
            "dlines": dlines}


def bind_cell(spec, A: CdgaPresentation):
    """Resolve a parsed cell-module spec against its algebra.

    Each entry of d accumulates its terms in place, with int coefficients
    where they are integral, as _parse_poly does; an entry that cancels
    is dropped at once, so a later term on it appends it anew.  Every
    stored coefficient becomes one Fraction at the end.  A d that admits
    no strict filtration is a ParseError at the first d line of the
    lowest element it leaves without a stage."""
    declared = spec["declared"]
    diff = {}
    for target, cur in spec["dlines"]:
        j = declared[target]
        for el in _signed_terms(cur, A.gen, A):
            key = (declared[_declared(cur, declared, "element")], j)
            entry = diff.setdefault(key, {})
            _vec_iadd(entry, el, 1)
            if not entry:
                del diff[key]
    diff = {key: {m: F(c) for m, c in entry.items()}
            for key, entry in diff.items()}
    try:
        filtration = _strict_filtration(spec["elts"], diff)
    except FiltrationError as e:
        name = spec["elts"][e.index][0]
        line = next(cur.lineno for target, cur in spec["dlines"]
                    if target == name)
        raise ParseError(f"d of element {name!r} admits no strict "
                         "filtration", line) from None
    return CellModule(A, spec["elts"], diff, filtration, 0, spec["name"])


def parse_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the line and column of the bad byte, counted as parse_text counts
        lines = (data[:e.start].decode("utf-8") + "^").splitlines()
        raise ParseError(f"invalid UTF-8 byte 0x{data[e.start]:02x}",
                         len(lines), len(lines[-1])) from None
    return parse_text(text)
