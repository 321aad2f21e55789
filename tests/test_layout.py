"""Repository layout guards."""

import ast
import builtins
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defined(stmt):
    """Names a top-level statement binds: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _referenced(tree):
    """Names, attribute names and `from ... import` names used in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_top_level_name_has_a_caller():
    """Every top-level def, class and assignment in src/condu (outside
    __init__.py) is referenced by another statement of the package, a
    demo, a benchmark script or the acceptance tests. The benchmark
    tracer finds names by string, so strings under benchmarks/ count."""
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "condu").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            defined.update((name, f"{path.stem}.{name}") for name in names)
            used |= _referenced(stmt) - names
    callers = [*sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "benchmarks").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    for path in callers:
        tree = ast.parse(path.read_text())
        used |= _referenced(tree)
        if path.parent.name == "benchmarks":
            used.update(word for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)
                        for word in re.findall(r"\w+", node.value))
    uncalled = sorted(q for name, q in defined.items() if name not in used)
    assert not uncalled, f"top-level names without a caller: {uncalled}"


def test_only_kernels_spells_the_csv_float_format():
    """The 17-digit float format of the CSV files is spelled in one module,
    kernels.py, beside the one CSV writer that uses it."""
    spelled = sorted(path.name for path in (ROOT / "src" / "condu").glob("*.py")
                     if "%.17g" in path.read_text())
    assert spelled == ["kernels.py"]


def _optional_parameters(tree):
    """(function name, parameter, positional index or None) for every
    parameter with a default; a method's index counts from after self."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(fn) in methods else 0
        for i, arg in enumerate(positional):
            if i >= len(positional) - len(args.defaults):
                yield fn.name, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def _passed(tree):
    """(callee name, keyword) and (callee name, positional index) for every
    argument passed in a call by name or attribute."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        out.update((name, kw.arg) for kw in node.keywords if kw.arg is not None)
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            out.add((name, i))
    return out


def test_every_optional_parameter_is_set_by_a_caller():
    """Every parameter with a default of a function in src/condu is passed,
    by keyword or by position, by some call in the package, a demo, a
    benchmark script or the acceptance tests: a default that no caller
    overrides is a constant. Parameters named with a leading underscore
    capture closure values and are exempt."""
    optional, passed = [], set()
    for path in sorted((ROOT / "src" / "condu").glob("*.py")):
        tree = ast.parse(path.read_text())
        optional += [(path.stem, *p) for p in _optional_parameters(tree)]
        passed |= _passed(tree)
    for path in [*sorted((ROOT / "demos").glob("*.py")),
                 *sorted((ROOT / "benchmarks").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        passed |= _passed(ast.parse(path.read_text()))
    unset = sorted(f"{module}.{fn}({param}=)" for module, fn, param, index in optional
                   if not param.startswith("_")
                   and (fn, param) not in passed and (fn, index) not in passed)
    assert not unset, f"optional parameters no caller sets: {unset}"


def test_the_package_raises_no_builtin_exception():
    """Every raise in src/condu names a ConduError subclass (or re-raises
    what it caught), so bad input reaches the CLI as a typed error with exit
    code 1. function_class.as_integer is exempt: its callers turn its
    TypeError and ValueError into SchemaError."""
    builtin = {name for name, v in vars(builtins).items()
               if isinstance(v, type) and issubclass(v, BaseException)}
    exempt = {("function_class", "as_integer")}
    found = []
    for path in sorted((ROOT / "src" / "condu").glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                and (path.stem, fn.name) in exempt for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None or id(node) in skip:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name in builtin:
                found.append(f"{path.stem}.py:{node.lineno} raises {name}")
    assert not found, f"builtin exceptions raised in src/condu: {found}"


def test_every_parameter_is_read():
    """Every parameter of every function in src/condu is read somewhere in
    its body, nested functions included: a parameter nothing reads is an
    input the caller must supply for nothing. self and names with a leading
    underscore are exempt, and so is the seed of the verify checks that
    ignore it, since every check takes the registry's one signature."""
    unread = []
    for path in sorted((ROOT / "src" / "condu").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs
                                      + [args.vararg, args.kwarg]) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            exempt = path.stem == "verify" and name.startswith("check_")
            unread += [f"{path.stem}.{name}({p})" for p in params
                       if p not in read and p != "self" and not p.startswith("_")
                       and not (exempt and p == "seed")]
    assert not unread, f"parameters nothing reads: {sorted(unread)}"
