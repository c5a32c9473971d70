"""Public surface: every public name has a caller in the package or the benchmark.

A name that only tests reach is surface to maintain with nothing depending
on it.  The rule is mechanical: each name in a module's ``__all__`` and each
public method or property of a public class needs a ``Name``,
``Attribute`` or import reference in ``src/zeromode/`` or ``bench/``,
outside ``__init__.py`` (whose re-exports are not callers).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zeromode"

# documented fixture: the identity operator the tests and docs build on
ALLOWED_WITHOUT_CALLER = {"constant_identity_model"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def module_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def public_names() -> dict[str, str]:
    """Public name -> where it is defined, over every package module."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        exported = module_all(tree)
        for name in exported:
            names[name] = f"{path.name}:__all__"
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        names.setdefault(item.name, f"{path.name}:{node.name}.{item.name}")
    return names


def referenced_names() -> set[str]:
    """Every name read, attribute accessed or imported in the package and bench code."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    seen = set()
    for path in files:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                seen.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return seen


def test_every_public_name_has_a_pipeline_or_bench_caller():
    referenced = referenced_names()
    orphans = {name: where for name, where in public_names().items()
               if name not in referenced and name not in ALLOWED_WITHOUT_CALLER}
    assert not orphans, f"public names reached only by tests: {orphans}"


def test_allow_list_names_real_public_names():
    assert ALLOWED_WITHOUT_CALLER <= set(public_names())
