"""Every exception class hopkit defines is named by some ``except`` in
``src/hopkit``.

A class that no handler tells apart from its base acts as that base
everywhere, so a user error is a plain ``ValueError`` and a new exception
class comes with the handler that needs it.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopkit"


def _name(node):
    """The last name of ``X`` or ``module.X``; None for any other node."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def uncaught_exception_classes(trees):
    """The classes deriving from ``Exception``, directly or through classes
    of ``trees``, that no ``except`` clause of ``trees`` names."""
    bases = {node.name: [_name(base) for base in node.bases]
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def is_exception(name, seen=()):
        if name in bases and name not in seen:
            return any(is_exception(base, (*seen, name)) for base in bases[name])
        builtin = getattr(builtins, name or "", None)
        return isinstance(builtin, type) and issubclass(builtin, Exception)

    caught = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(map(_name, types))
    defined = {name for name in bases if is_exception(name)}
    return defined - caught, defined


def test_every_exception_class_in_src_is_caught_by_name():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    uncaught, defined = uncaught_exception_classes(trees)
    assert "TransportError" in defined  # the scan sees the classes there are
    assert uncaught == set()


def test_the_scan_finds_a_class_no_handler_names():
    source = ("class Base(ValueError): pass\nclass Leaf(Base): pass\n"
              "class Caught(RuntimeError): pass\nclass Plain: pass\n"
              "try:\n    pass\nexcept (mod.Caught, KeyError):\n    pass\n")
    assert uncaught_exception_classes([ast.parse(source)]) == (
        {"Base", "Leaf"}, {"Base", "Leaf", "Caught"})
