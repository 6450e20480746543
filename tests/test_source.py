"""Rules checked on the library source itself."""

import ast
import re
from pathlib import Path

from monoheight import IntMatrix
from monoheight.matrices import _Analysis

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
# fields of a matrix's analysis record; each is filled by the function of its name
RECORD_FIELDS = ("charpoly_factors", "modulus_profile", "jordan_profile", "limit_matrix_B", "jordan_basis")
# calls that make an empty container, which at module level is a table waiting to fill
EMPTY_CONTAINERS = ("dict", "OrderedDict", "defaultdict", "WeakKeyDictionary", "WeakValueDictionary", "set", "list")
# LogProfile attributes that only its constructor writes, and the dict methods that change vals
PROFILE_ATTRIBUTES = ("vals", "signs")
MUTATING_METHODS = ("pop", "popitem", "update", "clear", "setdefault", "__setitem__", "__delitem__")
# CertifiedReal attributes that only its constructor writes
REAL_ATTRIBUTES = ("lo", "hi", "descriptor", "poly", "sq")
# calls that read or write a table by key
KEYED_METHODS = ("get", "setdefault", "pop", "move_to_end", "__getitem__", "__setitem__", "__contains__")


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


def _scoped_nodes(path):
    """(qualified name of the enclosing def, node) for every node of the module at path."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        found.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _call_name(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def _record_writes(path):
    """(scope, field, line) of each assignment, deletion or setattr of an
    analysis record field, and of each _Analysis(...) built with arguments."""
    writes = []
    for scope, node in _scoped_nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in RECORD_FIELDS and not isinstance(node.ctx, ast.Load):
            writes.append((scope, node.attr, node.lineno))
        elif isinstance(node, ast.Call) and _call_name(node) in ("setattr", "__setattr__"):
            writes.extend((scope, a.value, node.lineno) for a in node.args
                          if isinstance(a, ast.Constant) and a.value in RECORD_FIELDS)
        elif isinstance(node, ast.Call) and _call_name(node) == "_Analysis" and (node.args or node.keywords):
            writes.append((scope, "_Analysis(...)", node.lineno))
    return writes


def _is_rows(node):
    return isinstance(node, ast.Attribute) and node.attr in ("rows", "_rows")


def _row_tables(path):
    """(scope, line) of each table access keyed on matrix rows (a subscript, a
    keyed method call or an `in` test on X.rows), of each module-level empty
    container, and of each cached function taking an IntMatrix."""
    found = []
    for scope, node in _scoped_nodes(path):
        if isinstance(node, ast.Subscript) and _is_rows(node.slice):
            found.append((scope, node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in KEYED_METHODS and node.args and _is_rows(node.args[0]):
            found.append((scope, node.lineno))
        elif isinstance(node, ast.Compare) and _is_rows(node.left) \
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            found.append((scope, node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and any("cache" in ast.unparse(d) for d in node.decorator_list) \
                and any(a.annotation is not None and "IntMatrix" in ast.unparse(a.annotation)
                        for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs):
            found.append((scope, node.lineno))
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, (ast.List, ast.Set)) and not value.elts
                or isinstance(value, ast.Call) and _call_name(value) in EMPTY_CONTAINERS and not value.args):
            found.append(("<module>", node.lineno))
    return found


def test_only_the_analysis_functions_fill_the_matrix_slots():
    # the analysis lives in the one table of matrices.py, keyed on the rows:
    # nothing on the matrix object, no second table, and each field of a
    # record written only by its filler
    assert set(IntMatrix.__slots__) == {"n", "_rows"}
    assert set(_Analysis.__slots__) == set(RECORD_FIELDS)
    found = [f"{path.name}:{line} {scope} sets {name}" for path in sorted(SRC.rglob("*.py"))
             for scope, name, line in _record_writes(path) if scope != name]
    assert found == []
    tables = [f"{path.name} {scope}" for path in sorted(SRC.rglob("*.py"))
              for scope, _ in _row_tables(path)]
    assert tables.count("matrices.py <module>") == 1  # _ANALYSES
    assert set(tables) == {"matrices.py <module>", "matrices.py _analysis"}


def _profile_writes(path):
    """(scope, line) of each write to a LogProfile attribute and each change to
    a vals dict: an assignment, deletion or setattr of .vals or .signs,
    an assignment into X.vals[...] or a mutating method called on X.vals."""
    found = []
    for scope, node in _scoped_nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in PROFILE_ATTRIBUTES and not isinstance(node.ctx, ast.Load):
            found.append((scope, node.lineno))
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Attribute) and node.value.attr == "vals":
            found.append((scope, node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS \
                and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "vals":
            found.append((scope, node.lineno))
        elif isinstance(node, ast.Call) and _call_name(node) in ("setattr", "__setattr__"):
            found.extend((scope, node.lineno) for a in node.args
                         if isinstance(a, ast.Constant) and a.value in PROFILE_ATTRIBUTES)
    return found


def test_log_profiles_are_only_read():
    # log_profile keeps one profile per point and hands the same object to
    # every caller, so no caller may change it: only its constructor sets
    # vals and signs
    found = [f"{path.name}:{line} {scope}" for path in sorted(SRC.rglob("*.py"))
             for scope, line in _profile_writes(path) if scope != "LogProfile.__init__"]
    assert found == []


def _real_writes(path):
    """(scope, line) of each assignment, deletion or setattr of a
    CertifiedReal attribute, and of each definition named _copy."""
    found = []
    for scope, node in _scoped_nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in REAL_ATTRIBUTES and not isinstance(node.ctx, ast.Load):
            found.append((scope, node.lineno))
        elif isinstance(node, ast.Call) and _call_name(node) in ("setattr", "__setattr__"):
            found.extend((scope, node.lineno) for a in node.args
                         if isinstance(a, ast.Constant) and a.value in REAL_ATTRIBUTES)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_copy":
            found.append((scope, node.lineno))
    return found


def test_certified_reals_never_change():
    # a CertifiedReal in the analysis table is shared by every reader, so no
    # reader may narrow it: only its constructor sets the enclosure and the
    # witnesses, refine returns a new value, and there is no copy to refine
    found = [f"{path.name}:{line} {scope}" for path in sorted(SRC.rglob("*.py"))
             for scope, line in _real_writes(path) if scope != "CertifiedReal.__init__"]
    assert found == []


def _loads(source):
    """(bare names, (base, attribute) pairs) that the Python source loads;
    the base of an attribute load is the last name of its base expression."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
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
    loads = [_loads(p.read_text()) for p in users]
    names = set().union(*(n for n, _ in loads))
    attributes = set().union(*(a for _, a in loads))
    found = [f"{path.name}:{node.lineno} {node.name}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and not node.name.startswith("_") and node.name not in names
             and not {(base, node.name) for base in (path.stem, "lib", "monoheight")} & attributes]
    assert found == []


def test_every_public_method_has_a_caller():
    # a public method, property or classmethod that only unit tests reach is
    # surface to delete; any attribute load of its name counts as a call, but
    # a getattr string does not
    users = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    users.append(ROOT / "tests" / "test_acceptance.py")
    sources = [p.read_text() for p in users]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    loaded = {attr for source in sources for _, attr in _loads(source)[1]}
    found = [f"{path.name}:{node.lineno} {cls.name}.{node.name}" for path in sorted(SRC.rglob("*.py"))
             for cls in ast.parse(path.read_text(), filename=str(path)).body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("_") and node.name not in loaded]
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


def test_every_private_helper_has_a_caller():
    # a private module-level function that nothing in the library loads is
    # left over from a deletion: delete it with its last caller
    names, attributes = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        n, a = _loads(path.read_text())
        names |= n
        attributes |= {attr for _, attr in a}
    found = [f"{path.name}:{node.lineno} {node.name}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and node.name not in names | attributes]
    assert found == []


def _float_calls(path):
    """(qualified name of the enclosing def, line) of each call of the float builtin."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(path)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"]


def test_no_float_conversions():
    # decisions are exact: a float rounding of a certified value decides nothing
    found = [f"{path.name}:{line} {scope}" for path in sorted(SRC.rglob("*.py"))
             for scope, line in _float_calls(path)]
    assert found == []
