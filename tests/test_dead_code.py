"""Every function, class and method defined in src/adamsbar is read by
the program: somewhere in src/adamsbar/*.py or bench/*.py (the commands
and the benchmark jobs, not the tests) its name is loaded as a name or
an attribute, or imported; a method's name, as an attribute.  A
definition nothing reads is deleted, or kept on ALLOWED with the reason
it stays.

The scan goes by name, so a definition that shares its name with one
that is read counts as read: CellModule.slice_basis passes because
bench/worker.py calls it.  Only a method is told apart from a function:
a bare-name call of the function cdga.d_squared_failures would not keep
a method d_squared_failures alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "adamsbar").glob("*.py"))
READERS = SRC + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    "solve": "bench/tests/test_bench.py asserts that the bench tracer "
             "wraps linalg.solve",
    "tate": "the Tate objects A<n> of the cell-module category",
    "shift": "the shift M[k] of the cell-module category",
    "in_heart": "membership in the heart of the t-structure",
    "is_finite_tate": "the finite-Tate property of a cell module",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions():
    """{(name, is_method): [file:line, ...]} of the non-dunder functions,
    classes and methods defined in src/adamsbar; a method is a function
    defined in a class body."""
    out = {}
    for path in SRC:
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not _is_dunder(node.name):
                out.setdefault((node.name, id(node) in methods), []).append(
                    f"{path.name}:{node.lineno}")
    return out


def read_names():
    """(names, attributes): the names loaded as a name or an attribute, or
    imported, in src/adamsbar/*.py and bench/*.py, and those loaded as an
    attribute."""
    names, attributes = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attributes.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return names | attributes, attributes


def unread_definitions():
    """{name: [file:line, ...]} of the definitions no program code reads:
    a method unless its name is loaded as an attribute, anything else
    unless its name is read at all."""
    names, attributes = read_names()
    return {name: where for (name, method), where in definitions().items()
            if name not in (attributes if method else names)}


def test_every_definition_is_read():
    unread = {name: where for name, where in unread_definitions().items()
              if name not in ALLOWED}
    assert not unread, f"defined in src/ but read by no program code: {unread}"


def test_allowed_names_are_defined_and_unread():
    """An ALLOWED entry goes once its definition is deleted or read."""
    unread = unread_definitions()
    stale = sorted(n for n in ALLOWED if n not in unread)
    assert not stale, f"ALLOWED entries to remove: {stale}"
