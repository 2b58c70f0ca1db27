"""Options and definitions audits: every defaulted parameter of the
library is set by a program caller, and every definition has one.

A parameter that no program ever sets is a constant in disguise, and
each one doubles the configurations that tests would have to cover.  A
test that needs another value patches the module constant instead.  The
audit parses every function definition in src/fractal_remez and every
call in the programs, src/, scripts/ and perfbench/ (tests do not count),
matching calls to definitions by name, by keyword and by position.  A
call that passes the default's own literal (same type, same value) does
not set the parameter.  Passing a parameter of the enclosing function
straight through sets the callee's parameter only if that one is set in
turn.  A call with *args or **kwargs sets every parameter it can reach.

The definitions audit covers the package's module-level functions and
classes and every classmethod.  A definition is reached when a program
names it outside its own body and outside annotations; the package's
__init__.py re-exports and imports do not count.  A name resolves through
its file's imports of the package and the file's own top-level
definitions, and `cls` inside a class names that class.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractal_remez"
CALLER_DIRS = ("src", "scripts", "perfbench")
# definitions reached only in a way the scan cannot see, with the reason
UNSCANNED_CALLERS = {
    "extension.trace_tilde": "perfbench/tracer.py wraps it by name",
}


def _program_files() -> list[Path]:
    """The Python files of the programs: CALLER_DIRS less their tests."""
    return [path for folder in CALLER_DIRS
            for path in sorted((ROOT / folder).rglob("*.py"))
            if "tests" not in path.relative_to(ROOT).parts]


def _options() -> dict:
    """Function name -> {parameter: (call position or None, qualified
    function name, default expression)} for every definition in the
    package."""
    opts: dict = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
                entry = opts.setdefault(child.name, {})
                label = owner + child.name
                first = len(pos) - len(a.defaults)
                for i, default in enumerate(a.defaults, start=first):
                    entry[pos[i].arg] = (i - skip, label, default)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        entry[arg.arg] = (None, label, default)
                visit(child, "")
            else:
                visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "")
    return opts


def _is_default(value: ast.expr, default: ast.expr) -> bool:
    """Whether value is the same literal as default."""
    try:
        a, b = ast.literal_eval(value), ast.literal_eval(default)
    except ValueError:
        return False
    return type(a) is type(b) and a == b


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _scan_calls(opts: dict) -> tuple[set, dict]:
    """The (function, parameter) pairs some call sets outright, and the
    pass-through edges (function, parameter) -> {(enclosing, parameter)}."""
    set_by_call: set = set()
    forward: dict = {}

    def visit(node, stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + [node.name]
        if isinstance(node, ast.Call) and _callee(node) in opts:
            record(node, stack)
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    def record(call, stack):
        name = _callee(call)
        keywords = {kw.arg: kw.value for kw in call.keywords}
        starred = [isinstance(arg, ast.Starred) for arg in call.args]
        for param, (index, _, default) in opts[name].items():
            key = (name, param)
            if None in keywords or (index is not None
                                    and any(starred[:index + 1])):
                set_by_call.add(key)
                continue
            value = keywords.get(param)
            if value is None and index is not None and index < len(call.args):
                value = call.args[index]
            if value is None or _is_default(value, default):
                continue
            source = None
            if isinstance(value, ast.Name):
                source = next((fn for fn in reversed(stack)
                               if value.id in opts.get(fn, {})), None)
            if source is None:
                set_by_call.add(key)
            else:
                forward.setdefault(key, set()).add((source, value.id))

    for path in _program_files():
        visit(ast.parse(path.read_text()), [])
    return set_by_call, forward


def unset_options() -> list[str]:
    """Every defaulted parameter that no call sets, as "function(name=)"."""
    opts = _options()
    is_set, forward = _scan_calls(opts)
    changed = True
    while changed:
        changed = False
        for key, sources in forward.items():
            if key not in is_set and sources & is_set:
                is_set.add(key)
                changed = True
    return sorted(f"{label}({param}=)"
                  for name, params in opts.items()
                  for param, (_, label, _) in params.items()
                  if (name, param) not in is_set)


def test_every_option_is_set_by_a_caller():
    unset = unset_options()
    assert not unset, ("defaulted parameters that no caller sets: "
                       + ", ".join(unset))


def test_tests_are_not_callers():
    files = {path.relative_to(ROOT).parts[0] for path in _program_files()}
    assert files == set(CALLER_DIRS)
    assert (ROOT / "perfbench" / "tests").is_dir()
    assert not any("tests" in path.relative_to(ROOT).parts
                   for path in _program_files())


def test_default_literal_does_not_count_as_set():
    _, _, default = _options()["_check_args"]["q"]  # 2

    def parsed(text):
        return ast.parse(text, mode="eval").body

    assert _is_default(parsed("2"), default)
    assert not _is_default(parsed("1"), default)
    assert not _is_default(parsed("2.0"), default)
    assert not _is_default(parsed("k / 2"), default)


def _definitions() -> set:
    """Labels ("module.name" or "module.Class.name") of the package's
    module-level functions and classes and its classmethods."""
    labels = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            label = f"{path.stem}.{node.name}"
            labels.add(label)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "classmethod"
                        for d in item.decorator_list):
                    labels.add(f"{label}.{item.name}")
    return labels


def _bindings(tree: ast.Module, module: str | None) -> dict:
    """The names a file binds to package modules ("campanato") and to
    package definitions ("campanato.Majorant"): by import, or by defining
    them at the top of the package module `module`."""
    names = {"fractal_remez": ""}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("fractal_remez")):
            base = (node.module or "").removeprefix("fractal_remez")
            base = base.removeprefix(".")
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name)
    if module is not None:
        names.update((node.name, f"{module}.{node.name}") for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return names


def uncalled_definitions() -> list[str]:
    """Every definition no program names outside its own body."""
    labels = _definitions()
    reached: set = set()

    def resolve(node, names, klass):
        """The module or definition label an expression names, if any."""
        if isinstance(node, ast.Name):
            return klass if node.id == "cls" else names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value, names, klass)
            if base is not None:
                return f"{base}.{node.attr}".lstrip(".")
        return None

    def visit(node, where, names, klass):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}"
            if isinstance(node, ast.ClassDef):
                klass = where
        label = resolve(node, names, klass)
        # a definition's own body, or a body nested in it, does not count
        if label in labels and not (where + ".").startswith(label + "."):
            reached.add(label)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, where, names, klass)

    for path in _program_files():
        module = path.stem if path.parent == PACKAGE else None
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text())
        visit(tree, module or str(path), _bindings(tree, module), None)
    return sorted(labels - reached)


def test_every_definition_has_a_program_caller():
    uncalled = uncalled_definitions()
    assert uncalled == sorted(UNSCANNED_CALLERS), (
        "definitions that no program calls: "
        + ", ".join(sorted(set(uncalled) - set(UNSCANNED_CALLERS))))
