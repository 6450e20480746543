"""Rules checked on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "monoheight"
BROAD = ("Exception", "BaseException")
ENVIRONMENT = ("environ", "getenv")


def _broad_handlers(path):
    """Line numbers of bare, `except Exception` or `except BaseException` handlers."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(t, ast.Name) and t.id in BROAD for t in types):
            yield node.lineno


def test_no_broad_exception_handlers():
    # a failed internal self-check raises ArithmeticError and must surface
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _broad_handlers(path)]
    assert found == []


def _environment_reads(path):
    """Line numbers that touch os.environ or os.getenv, or import them from os."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name in ENVIRONMENT for alias in node.names):
            yield node.lineno


def test_no_environment_reads():
    # no environment variable selects behaviour: results depend on arguments only
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _environment_reads(path)]
    assert found == []
