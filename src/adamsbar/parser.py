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
rational of denominator 1 is read as an int.  A cdga keeps it so: the
structure maps of an integral presentation compute with ints.  bind_cell
adds a cell module's terms up in place with the same ints and stores
each coefficient of its d as one Fraction.
"""

import re
from fractions import Fraction

from .cdga import CdgaPresentation, GeneratorSpec, UNIT
from .cellmod import CellModule, _strict_filtration
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


def _parse_term(cur, declared):
    coeff = _parse_rational(cur)
    names = []
    while cur.peek() == "*":
        cur.next()
        tok, col = cur.next()
        if tok not in declared:
            raise ParseError(f"undeclared identifier {tok!r}", cur.lineno, col)
        names.append(tok)
    return coeff, names


def _parse_poly(cur, declared, A):
    """Parse a polynomial and normalize it in the algebra A.  A
    coefficient of denominator 1 is stored as an int, so the structure
    maps of an integral presentation compute with ints."""
    out = {}
    sign = 1
    if cur.peek() == "-":
        cur.next()
        sign = -1
    while True:
        coeff, names = _parse_term(cur, declared)
        term = {UNIT: sign * coeff}
        for name in names:
            term = A.multiply(term, {((name, 1),): 1})
        _vec_iadd(out, term, 1)
        nxt = cur.peek()
        if nxt is None:
            return out
        if nxt not in ("+", "-"):
            tok, col = cur.toks[cur.i]
            raise ParseError(f"expected '+' or '-', got {tok!r}",
                             cur.lineno, col)
        cur.next()
        sign = 1 if nxt == "+" else -1


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
    gens = []
    declared = set()
    deferred = []  # (op, payload, cursor) resolved once all gens exist
    for lineno, toks in lines[1:]:
        cur = _Cursor(toks, lineno)
        op, col = cur.next()
        if op == "gen":
            gname, gcol = cur.next()
            if gname in declared:
                raise ParseError(f"duplicate generator {gname!r}", lineno, gcol)
            cur.next(expect="deg")
            deg = _parse_int(cur, "degree")
            cur.next(expect="wt")
            wt = _parse_int(cur, "weight")
            cur.done()
            if wt < 1:
                raise ParseError(
                    f"generator {gname!r} has weight {wt} < 1", lineno, gcol
                )
            group = name if kind == "table" else None
            gens.append(GeneratorSpec(gname, deg, wt, group=group))
            declared.add(gname)
        elif op in ("d", "aug"):
            target, tcol = cur.next()
            if target not in declared:
                raise ParseError(f"undeclared identifier {target!r}",
                                 lineno, tcol)
            cur.next(expect="=")
            deferred.append((op, target, cur, set(declared)))
        elif op == "mul":
            if kind != "table":
                raise ParseError("mul line in a free presentation", lineno, col)
            a, acol = cur.next()
            b, bcol = cur.next()
            for t, c in ((a, acol), (b, bcol)):
                if t not in declared:
                    raise ParseError(f"undeclared identifier {t!r}", lineno, c)
            cur.next(expect="=")
            deferred.append(("mul", (a, b), cur, set(declared)))
        else:
            raise ParseError(f"unknown directive {op!r}", lineno, col)
    try:
        A = CdgaPresentation(name, kind, gens)
    except Exception as e:
        raise ParseError(str(e), lines[0][0])
    # products first, so later polynomials normalize through the table
    for op, payload, cur, seen in deferred:
        if op == "mul":
            val = _parse_poly(cur, seen, A)
            cur.done()
            try:
                A.set_product(payload[0], payload[1], val)
            except Exception as e:
                raise ParseError(str(e), cur.lineno)
    differential, augmentation = {}, {}
    for op, payload, cur, seen in deferred:
        if op == "d":
            val = _parse_poly(cur, seen, A)
            cur.done()
            if val:
                differential[payload] = val
        elif op == "aug":
            val = _parse_poly(cur, seen, A)
            cur.done()
            augmentation[payload] = val
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
            ename, ecol = cur.next()
            if ename in declared:
                raise ParseError(f"duplicate element {ename!r}", lineno, ecol)
            cur.next(expect="deg")
            deg = _parse_int(cur, "degree")
            cur.next(expect="wt")
            wt = _parse_int(cur, "weight")
            cur.done()
            if wt < 0:
                raise ParseError(
                    f"element {ename!r} has weight {wt} < 0", lineno, ecol
                )
            declared[ename] = len(elts)
            elts.append((ename, deg, wt))
        elif op == "d":
            target, tcol = cur.next()
            if target not in declared:
                raise ParseError(f"undeclared element {target!r}", lineno, tcol)
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
    stored coefficient becomes one Fraction at the end."""
    gen_names = set(A.gen)
    declared = spec["declared"]
    diff = {}
    for target, cur in spec["dlines"]:
        j = declared[target]
        sign = 1
        if cur.peek() == "-":
            cur.next()
            sign = -1
        while True:
            coeff, names = _parse_term(cur, gen_names)
            el = {UNIT: sign * coeff}
            for nm in names:
                el = A.multiply(el, {((nm, 1),): 1})
            ename, ecol = cur.next()
            if ename not in declared:
                raise ParseError(f"undeclared element {ename!r}",
                                 cur.lineno, ecol)
            key = (declared[ename], j)
            entry = diff.setdefault(key, {})
            _vec_iadd(entry, el, 1)
            if not entry:
                del diff[key]
            nxt = cur.peek()
            if nxt is None:
                break
            if nxt not in ("+", "-"):
                tok, col = cur.toks[cur.i]
                raise ParseError(f"expected '+' or '-', got {tok!r}",
                                 cur.lineno, col)
            cur.next()
            sign = 1 if nxt == "+" else -1
    diff = {key: {m: F(c) for m, c in entry.items()}
            for key, entry in diff.items()}
    filtration = _strict_filtration(spec["elts"], diff)
    return CellModule(A, spec["elts"], diff, filtration, 0, spec["name"])


def parse_file(path):
    with open(path, "rb") as fh:
        return parse_text(fh.read().decode("utf-8"))
