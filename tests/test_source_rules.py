"""Source rules kept by a walk of the package's syntax trees: runtime
invariants are typed `KerrcoolError`s, never an `assert`, which `python -O`
strips, nor a bare `ValueError`, `RuntimeError` or `Exception`, which the
CLI does not map to an exit code.  The `TypeError` of `io._json_default`
stays: the `json` module's `default` hook must raise it.  The rate-form
occupation has one home, `cooling.rate_occupation`: its numerator
p.gamma_m * p.n_th + ... is spelt nowhere else."""
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


def _is_rate_numerator(node) -> bool:
    """An addition whose left side is p.gamma_m * p.n_th."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    left = node.left
    return (isinstance(left, ast.BinOp) and isinstance(left.op, ast.Mult)
            and (ast.unparse(left.left), ast.unparse(left.right)) == ("p.gamma_m", "p.n_th"))


def _rate_form_copies(source: str, filename: str) -> list:
    """Every rate-form numerator outside `rate_occupation` of cooling.py."""
    tree = ast.parse(source, filename)
    home = set()
    if filename == "cooling.py":
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "rate_occupation":
                home.update(map(id, ast.walk(fn)))
    return [f"{filename}:{node.lineno}: rate form" for node in ast.walk(tree)
            if _is_rate_numerator(node) and id(node) not in home]


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_rate_form_has_one_home(path):
    assert _rate_form_copies(path.read_text(), path.name) == []


def test_rate_form_rule_fires():
    home = ("def rate_occupation(p, g, g_opt):\n"
            "    return (p.gamma_m * p.n_th + g) / (p.gamma_m + g_opt)\n")
    copy = ("def lane(p, g_s, g_opt, xi):\n"
            "    n = (p.gamma_m * p.n_th + (1.0 - xi) * g_s) / (p.gamma_m + g_opt)\n"
            "    return n, p.gamma_m * p.n_th / (p.gamma_m + g_opt)\n")
    # the copy on line 4 is flagged; the thermal share on line 5 is no rate form
    assert _rate_form_copies(home + copy, "cooling.py") == ["cooling.py:4: rate form"]
    # the home is one function of one module
    assert _rate_form_copies(home, "sweeps.py") == ["sweeps.py:2: rate form"]
    # the rule sees the home's own numerators, so it is not vacuous there
    cooling_src = (PACKAGE / "cooling.py").read_text()
    assert _rate_form_copies(cooling_src, "elsewhere.py")
