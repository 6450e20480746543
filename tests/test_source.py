"""Rules checked on the library source itself."""

import ast
from pathlib import Path

from monoheight import IntMatrix

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "monoheight"
BROAD = ("Exception", "BaseException")
ENVIRONMENT = ("environ", "getenv")
# sympy's root objects: moduli are ranked from certified root discs instead
ROOT_OBJECTS = ("CRootOf", "rootof", "all_roots", "eval_rational")
# sympy's cyclotomic tables: a root-of-unity order is read off integer remainders x^k mod g
CYCLOTOMIC_TABLES = ("totient", "cyclotomic_poly")
# sympy's expression routes to a resultant: symbols to build the polynomials, resultant on them
SYMPY_EXPRESSION_ROUTES = ("symbols", "resultant")
# IntMatrix analysis slot -> the one function that fills it
SLOT_FILLERS = {"_factors": "charpoly_factors", "_modulus": "modulus_profile",
                "_jordan": "jordan_profile", "_limit": "limit_matrix_B"}


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


def _references(path, targets):
    """Line numbers naming one of targets, as a name, an attribute or an import."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {part for alias in node.names for part in alias.name.split(".")}
        if names & set(targets):
            yield node.lineno


def test_no_sympy_root_objects():
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _references(path, ROOT_OBJECTS)]
    assert found == []


def test_no_sympy_cyclotomic_tables():
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _references(path, CYCLOTOMIC_TABLES)]
    assert found == []


def _sympy_expression_calls(path):
    """Line numbers that load one of SYMPY_EXPRESSION_ROUTES from the sympy module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in SYMPY_EXPRESSION_ROUTES \
                and isinstance(node.value, ast.Name) and node.value.id == "sympy":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sympy") \
                and any(alias.name in SYMPY_EXPRESSION_ROUTES for alias in node.names):
            yield node.lineno


def test_no_sympy_expression_resultants():
    # modulus ranking builds its resultant on dense integer lists
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _sympy_expression_calls(path)]
    assert found == []


def _tol_parameters(path):
    """(function name, line) of each function with a parameter named tol."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == "tol" for p in params):
                yield getattr(node, "name", "<lambda>"), node.lineno


def test_no_tolerance_parameters():
    # zero tests are exact and the degree >= 3 limit stops at jordan.LIMIT_TOL
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.rglob("*.py"))
             for name, line in _tol_parameters(path)]
    assert found == []


def _slot_writes(path):
    """(qualified name of the enclosing def, slot, line) of each assignment,
    deletion or setattr of an IntMatrix analysis slot."""
    writes = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr in SLOT_FILLERS \
                and not isinstance(node.ctx, ast.Load):
            writes.append((scope, node.attr, node.lineno))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) \
                in ("setattr", "__setattr__"):
            writes.extend((scope, a.value, node.lineno) for a in node.args
                          if isinstance(a, ast.Constant) and a.value in SLOT_FILLERS)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return writes


def test_only_the_analysis_functions_fill_the_matrix_slots():
    # the memo lives on the matrix and nowhere else: no ad-hoc caches
    assert set(SLOT_FILLERS) <= set(IntMatrix.__slots__)
    found = [f"{path.name}:{line} {scope} sets {slot}" for path in sorted(SRC.rglob("*.py"))
             for scope, slot, line in _slot_writes(path)
             if scope not in (SLOT_FILLERS[slot], "IntMatrix.__init__")]
    assert found == []


def _loads(path):
    """(bare names, (base, attribute) pairs) that the module at path loads;
    the base of an attribute load is the last name of its base expression."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            attributes.add((getattr(base, "id", getattr(base, "attr", None)), node.attr))
    return names, attributes


def test_every_public_definition_has_a_caller():
    # a public function or class that only unit tests reach is surface to delete;
    # an attribute load counts only on its defining module, `lib` or `monoheight`,
    # so a method of the same name cannot hide a function that nothing calls
    users = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    loads = [_loads(p) for p in users]
    names = set().union(*(n for n, _ in loads))
    attributes = set().union(*(a for _, a in loads))
    found = [f"{path.name}:{node.lineno} {node.name}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and not node.name.startswith("_") and node.name not in names
             and not {(base, node.name) for base in (path.stem, "lib", "monoheight")} & attributes]
    assert found == []


def test_no_public_name_is_defined_in_two_modules():
    # one routine per job: a second public definition of a name is a second implementation
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                modules.setdefault(node.name, []).append(path.stem)
    assert {name: stems for name, stems in modules.items() if len(stems) > 1} == {}
