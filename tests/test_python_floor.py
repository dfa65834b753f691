"""hopkit runs on the oldest Python that ``pyproject.toml`` declares: every
module of the package parses with that version's grammar, and no regular
expression in it uses syntax that version's ``re`` lacks."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hopkit").glob("*.py"))
RE_FUNCTIONS = {"compile", "search", "match", "fullmatch", "split", "sub", "subn",
                "findall", "finditer"}
# Atomic groups and possessive quantifiers came with Python 3.11.
NEWER_REGEX_SYNTAX = re.compile(r"\(\?>|(?<!\\)[*+?}]\+")


def declared_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def regex_literals(tree):
    """Each str or bytes literal passed as the pattern of an ``re`` function,
    as str."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.func.attr in RE_FUNCTIONS and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, (str, bytes))):
            value = node.args[0].value
            yield value if isinstance(value, str) else value.decode("latin-1")


def test_the_package_parses_with_the_declared_floor():
    floor = declared_floor()
    assert len(SOURCES) == 10
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def test_no_regex_uses_syntax_newer_than_the_floor():
    assert declared_floor() < (3, 11)  # else this rule can go
    patterns = [pattern for path in SOURCES
                for pattern in regex_literals(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(patterns) >= 4  # the scan sees the package's patterns
    assert [p for p in patterns if NEWER_REGEX_SYNTAX.search(p)] == []
    # the check itself recognises both forms, and an escaped plus
    assert NEWER_REGEX_SYNTAX.search(r"(?>a)") and NEWER_REGEX_SYNTAX.search(r"\s++")
    assert not NEWER_REGEX_SYNTAX.search(r"\++|[+]+")
