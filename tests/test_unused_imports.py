"""No dead imports: every module-level import in ``src/`` is used.

A plain ``ast`` scan (no linter dependency). A name counts as used if
it appears as a name anywhere in the module, is listed in ``__all__``
(re-exports), or appears inside a string annotation. Package
``__init__`` modules exist to re-export, so they are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _module_imports(tree):
    """(line, bound name) of imports at module level, TYPE_CHECKING included."""
    for stmt in tree.body:
        for node in stmt.body if isinstance(stmt, ast.If) else [stmt]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield node.lineno, (alias.asname or alias.name).split(".")[0]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [
            f"{path.relative_to(SRC)}:{line} {name}"
            for line, name in _module_imports(tree)
            if name not in used
        ]
    assert unused == []
