"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "indgl2"
TRACER = ROOT / "perfbench" / "tracing.py"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` compiles asserts out, so a check that backs a pass or a build must raise explicitly
    lines = [node.lineno for node in ast.walk(MODULES[path.stem]) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_analysis_runs_on_coordinates():
    # the verifier and the run decide everything on coordinates; the element calculus serves the tests and the tracer
    calculus = {"InducedElem", "flatten", "unflatten", "singleton", "u_act", "hecke_T_plus", "operator_matrix"}
    for module in ("analysis", "cli"):
        tree = MODULES[module]
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert imported.isdisjoint(calculus), (module, imported & calculus)


def _tracer_names() -> set:
    """The "module.name" of every function or method that perfbench/tracing.py requires, read from its
    FUNCTIONS, LINALG_TIMED, PROBES and METHODS."""
    consts = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            consts[node.targets[0].id] = node.value
    names = {f"{layer}.{fn}" for layer, fns in ast.literal_eval(consts["FUNCTIONS"]).items() for fn in fns}
    names |= {f"linalg.{fn}" for fn in ast.literal_eval(consts["LINALG_TIMED"])}
    names |= {ast.literal_eval(key) for key in consts["PROBES"].keys}
    names |= {".".join(entry) for entry in ast.literal_eval(consts["METHODS"])}
    return names


def _defs(private: bool):
    """(module, qualified name, node) of every module-level function and class method in src that is
    private (one leading underscore, not a dunder) or public."""
    for module, tree in MODULES.items():
        for node in tree.body:
            subs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                subs = [(f"{node.name}.{sub.name}", sub) for sub in node.body if isinstance(sub, ast.FunctionDef)]
            for qualname, sub in subs:
                if sub.name.startswith("_") == private and not sub.name.startswith("__"):
                    yield module, qualname, sub


def _constants():
    """(module, name, node) of every name bound by a module-level assignment in src, dunders excepted."""
    for module, tree in MODULES.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield module, name.id, node


def _unreferenced(defs) -> list:
    """The defs with no reference in src outside their own definition.  A reference is an attribute
    spelled like the defined name (the last part of its qualified name), or for a module-level def also
    a bare name: a method is reached only through x.name, so a local variable of that name is none."""
    refs = {}  # (name, is attribute) -> [(module, line)]
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault((node.id, False), []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault((node.attr, True), []).append((module, node.lineno))
    unused = []
    for module, qualname, node in defs:
        name = qualname.rsplit(".", 1)[-1]
        found = refs.get((name, True), []) + ([] if "." in qualname else refs.get((name, False), []))
        if all(other == module and node.lineno <= line <= node.end_lineno for other, line in found):
            unused.append(f"{module}.{qualname}")
    return unused


def test_every_public_function_has_a_caller_in_src():
    # a function that only the tests call belongs in the tests; the allowlist is what the benchmark's tracer
    # requires, and the console entry point
    allowed = _tracer_names() | {"cli.main"}
    unused = [name for name in _unreferenced(_defs(private=False)) if name not in allowed]
    assert unused == [], f"public functions with no caller in src: {unused}"


def test_every_private_function_has_a_caller_in_src():
    # a private helper that nothing in src reaches is dead code, whatever the tests do with it
    unused = _unreferenced(_defs(private=True))
    assert unused == [], f"private functions with no caller in src: {unused}"


def test_every_module_constant_is_read_in_src():
    # a constant that only the tests read is left over from code that went, as a tuning bound of a deleted route
    unread = _unreferenced(_constants())
    assert unread == [], f"module-level constants with no reader in src: {unread}"
