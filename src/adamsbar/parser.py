"""Text format for algebra and cell-module presentations.

One definition per file:

    cdga <name> (free|table)
    gen <ident> deg <int> wt <posint>
    d <ident> = <poly>
    mul <ident> <ident> = <poly>      # table only; 0 for an odd square
    aug <ident> = <poly>              # relative use; default 0

    cell <name> over <cdga-name>
    elt <ident> deg <int> wt <int>
    d <ident> = <coeff-poly> <ident> [('+'|'-') <coeff-poly> <ident>]*

poly: term (('+'|'-') term)*;  term: rational ['*' ident ('*' ident)*];
rational: int ['/' posint].  Every identifier must be declared before
use; errors carry line and column numbers.  A generator has at most one
d and one aug line, and a pair at most one mul line in either order; a
cell file sums the d lines of one element.  A table file's generators
are all in the one table, whatever the file's name.

parse_file decodes the file's bytes as UTF-8, and each line is split into
its token strings by one regex findall before any of it is parsed; the
column of a token is worked out from its line only for an error there.
Each name maps to the position of its declaration, and a d, aug or mul
line keeps the number of names declared above it, so a name declared
later is undeclared by one comparison, with no copy of the names.  A
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
    """The token strings of a line, from one findall; whitespace only
    separates tokens.  A character that starts no token reads as "", and
    only then does finditer look for its column."""
    toks = _TOKEN.findall(text)
    if "" in toks:
        m = next(m for m in _TOKEN.finditer(text) if m[1] is None)
        raise ParseError(f"bad character {m[0]!r}", lineno, m.start() + 1)
    return toks


class _Cursor:
    """The tokens of one line, read in order.  The line itself is kept,
    so that an error works out the column of its token only when it is
    raised."""

    def __init__(self, text, toks, lineno):
        self.text = text
        self.toks = toks
        self.i = 0
        self.lineno = lineno

    def error(self, msg, i):
        """The ParseError msg at the column of token i."""
        cols = [m.start() + 1 for m in _TOKEN.finditer(self.text)]
        return ParseError(msg, self.lineno, cols[i])

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, expect=None):
        try:
            tok = self.toks[self.i]
        except IndexError:
            raise ParseError(
                f"unexpected end of line (wanted {expect or 'more input'})",
                self.lineno,
            ) from None
        self.i += 1
        if expect is not None and tok != expect:
            raise self.error(f"expected {expect!r}, got {tok!r}", self.i - 1)
        return tok

    def done(self):
        if self.i < len(self.toks):
            raise self.error(f"trailing input {self.toks[self.i]!r}", self.i)


def _parse_int(cur, what):
    tok = cur.next()
    neg = tok == "-"
    if neg:
        tok = cur.next()
    if not tok.isdigit():
        raise cur.error(f"expected {what}, got {tok!r}", cur.i - 1)
    return -int(tok) if neg else int(tok)


def _parse_rational(cur):
    """The rational as an int when its denominator is 1, else as a
    Fraction."""
    val = _parse_int(cur, "rational")
    if cur.peek() == "/":
        cur.next()
        tok = cur.next()
        if not tok.isdigit() or int(tok) == 0:
            raise cur.error(f"expected positive denominator, got {tok!r}",
                            cur.i - 1)
        val = F(val, int(tok))
        if val.denominator == 1:
            val = val.numerator
    return val


def _declared(cur, declared, limit, what="identifier"):
    """The next token, a name that declared maps to a position below
    limit: one declared above the line that reads it."""
    tok = cur.next()
    if declared.get(tok, limit) >= limit:
        raise cur.error(f"undeclared {what} {tok!r}", cur.i - 1)
    return tok


def _declaration(cur, declared, what, least):
    """(name, degree, weight) of a `name deg n wt w` line: the name is new
    and w >= least, else the error is at the name's column."""
    name = cur.next()
    if name in declared:
        raise cur.error(f"duplicate {what} {name!r}", 1)
    cur.next(expect="deg")
    deg = _parse_int(cur, "degree")
    cur.next(expect="wt")
    wt = _parse_int(cur, "weight")
    cur.done()
    if wt < least:
        raise cur.error(f"{what} {name!r} has weight {wt} < {least}", 1)
    return name, deg, wt


def _signed_terms(cur, declared, limit, A):
    """Each term of a signed sum that runs to the end of the line, with its
    sign, as an element normalized in the algebra A: an optional leading
    '-', then term (('+'|'-') term)*, each name in it declared below
    limit.  The caller may read on after each term (bind_cell reads its
    element) before it asks for the next."""
    sign = 1
    if cur.peek() == "-":
        cur.next()
        sign = -1
    while True:
        coeff = _parse_rational(cur)
        names = []
        while cur.peek() == "*":
            cur.next()
            names.append(_declared(cur, declared, limit))
        term = {UNIT: sign * coeff}
        for name in names:
            term = A.multiply(term, {((name, 1),): 1})
        yield term
        nxt = cur.peek()
        if nxt is None:
            return
        if nxt not in ("+", "-"):
            raise cur.error(f"expected '+' or '-', got {nxt!r}", cur.i)
        cur.next()
        sign = 1 if nxt == "+" else -1


def _parse_poly(cur, declared, limit, A):
    """The sum of _signed_terms: a polynomial normalized in the algebra A."""
    out = {}
    for term in _signed_terms(cur, declared, limit, A):
        _vec_iadd(out, term, 1)
    return out


def parse_text(text):
    """Parse a presentation file.

    Returns ("cdga", CdgaPresentation) or ("cell", cell-spec dict); bind
    the latter to its algebra with bind_cell.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.split("#", 1)[0]
        toks = _tokens(raw, lineno)
        if toks:
            lines.append(_Cursor(raw, toks, lineno))
    if not lines:
        raise ParseError("empty file", 1)
    kind_tok = lines[0].toks[0]
    if kind_tok == "cdga":
        return "cdga", _parse_cdga(lines)
    if kind_tok == "cell":
        return "cell", _parse_cell(lines)
    raise ParseError(
        f"file must start with 'cdga' or 'cell', got {kind_tok!r}",
        lines[0].lineno)


def _parse_cdga(lines):
    cur = lines[0]
    cur.next(expect="cdga")
    name = cur.next()
    kind = cur.next()
    if kind not in ("free", "table"):
        raise cur.error(f"kind must be free or table, got {kind!r}", 2)
    cur.done()
    table = kind == "table"
    gens = []
    declared = {}  # name -> its position in gens
    # mul lines by name-sorted pair and d/aug lines by (op, target), each
    # with its cursor and the number of generators declared above it;
    # their sums are read once every generator exists
    products, maps = {}, {}
    for cur in lines[1:]:
        op = cur.next()
        seen = len(gens)
        if op == "gen":
            gname, deg, wt = _declaration(cur, declared, "generator", 1)
            gens.append(GeneratorSpec(gname, deg, wt, table))
            declared[gname] = seen
        elif op in ("d", "aug"):
            target = _declared(cur, declared, seen)
            if (op, target) in maps:
                raise cur.error(f"duplicate {op} line for {target!r}", 1)
            cur.next(expect="=")
            maps[op, target] = cur, seen
        elif op == "mul":
            if not table:
                raise cur.error("mul line in a free presentation", 0)
            # both names are read before either is checked, so a line
            # that ends early reports its end
            cur.next(), cur.next()
            cur.i = 1
            pair = (_declared(cur, declared, seen),
                    _declared(cur, declared, seen))
            key = min(pair), max(pair)
            if key in products:
                raise cur.error(f"duplicate mul line for {pair}", 1)
            cur.next(expect="=")
            products[key] = pair, cur, seen
        else:
            raise cur.error(f"unknown directive {op!r}", 0)
    A = CdgaPresentation(name, gens)
    # products first, so later polynomials normalize through the table
    for pair, cur, seen in products.values():
        val = _parse_poly(cur, declared, seen, A)
        if val and pair[0] == pair[1] and gens[declared[pair[0]]].coh % 2:
            raise cur.error(f"odd generator {pair[0]!r} squares to 0", 1)
        A.set_product(*pair, val)
    differential, augmentation = {}, {}
    for (op, target), (cur, seen) in maps.items():
        val = _parse_poly(cur, declared, seen, A)
        if op == "aug":
            augmentation[target] = val
        elif val:
            differential[target] = val
    return CdgaPresentation(name, gens, differential, A.products,
                            augmentation)


def _parse_cell(lines):
    cur = lines[0]
    cur.next(expect="cell")
    name = cur.next()
    cur.next(expect="over")
    over = cur.next()
    cur.done()
    elts = []
    declared = {}  # name -> its position in elts
    dlines = []
    for cur in lines[1:]:
        op = cur.next()
        if op == "elt":
            elt = _declaration(cur, declared, "element", 0)
            declared[elt[0]] = len(elts)
            elts.append(elt)
        elif op == "d":
            target = _declared(cur, declared, len(elts), "element")
            cur.next(expect="=")
            dlines.append((target, cur, cur.i))
        else:
            raise cur.error(f"unknown directive {op!r}", 0)
    return {"name": name, "over": over, "elts": elts, "declared": declared,
            "dlines": dlines}


def bind_cell(spec, A: CdgaPresentation):
    """Resolve a parsed cell-module spec against its algebra.

    Each entry of d accumulates its terms in place, with int coefficients
    where they are integral, as _parse_poly does; an entry that cancels
    is dropped at once, so a later term on it appends it anew.  Every
    stored coefficient becomes one Fraction at the end.  A d that admits
    no strict filtration is a ParseError at the first d line of the
    lowest element it leaves without a stage.  The spec is not consumed:
    each d line is read from its sum's first token, so a spec binds
    alike every time."""
    # every element and every generator of A is declared by now, so a
    # name is checked against all of their positions
    declared, n = spec["declared"], len(spec["elts"])
    gens = {g.name: k for k, g in enumerate(A.generators)}
    diff = {}
    for target, cur, start in spec["dlines"]:
        cur.i = start
        j = declared[target]
        for el in _signed_terms(cur, gens, len(gens), A):
            key = (declared[_declared(cur, declared, n, "element")], j)
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
        line = next(cur.lineno for target, cur, _ in spec["dlines"]
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
