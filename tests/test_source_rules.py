"""Source rules kept by a walk of the package's syntax trees: runtime
invariants are typed `KerrcoolError`s, never an `assert`, which `python -O`
strips, nor a bare `ValueError`, `RuntimeError` or `Exception`, which the
CLI does not map to an exit code.  The `TypeError` of `io._json_default`
stays: the `json` module's `default` hook must raise it."""
import ast
from pathlib import Path

import pytest

import kerrcool

PACKAGE = Path(kerrcool.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
UNTYPED = {"ValueError", "RuntimeError", "Exception"}


def _raised_name(node: ast.Raise):
    """The name of the class a `raise` statement raises, or None."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _violations(source: str, filename: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Assert):
            out.append(f"{filename}:{node.lineno}: assert")
        elif isinstance(node, ast.Raise) and _raised_name(node) in UNTYPED:
            out.append(f"{filename}:{node.lineno}: raise {_raised_name(node)}")
    return out


def test_package_sources_found():
    assert {"cooling.py", "io.py", "sweeps.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_and_no_untyped_raise(path):
    assert _violations(path.read_text(), path.name) == []


def test_rules_catch_each_form():
    bad = ("assert x > 0\n"
           "raise ValueError('x')\n"
           "raise RuntimeError\n"
           "def f():\n    raise Exception('y') from None\n")
    assert _violations(bad, "bad.py") == [
        "bad.py:1: assert", "bad.py:2: raise ValueError",
        "bad.py:3: raise RuntimeError", "bad.py:5: raise Exception"]
    allowed = ("raise TypeError('not JSON serializable')\n"
               "raise DomainError('x')\n"
               "try:\n    pass\nexcept ValueError:\n    raise\n")
    assert _violations(allowed, "ok.py") == []
