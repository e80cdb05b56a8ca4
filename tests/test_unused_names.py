"""Static guard over the package source: no module imports a name it never
uses, every private module- or class-level `_name` is referenced somewhere
in the package, and every public function or method is referenced somewhere
in the source, the tests or the benchmark.  Deleting a function should take
its helpers and imports with it; this catches the ones left behind."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import dyadlab

PACKAGE = Path(dyadlab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import statement, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # re-exports listed in __all__ count as uses
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return used


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Single-underscore names defined at module or class level, with their line."""
    names = {}
    scopes = [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in found:
                if name.startswith("_") and not name.startswith("__"):
                    names[name] = node.lineno
    return names


def references(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in the module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = parse(path)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_definition_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    refs = set().union(*map(references, trees.values()))
    orphans = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in refs
    ]
    assert not orphans, f"private names nothing in the package references: {orphans}"


def public_definitions(trees: dict[str, ast.Module]) -> dict[str, str]:
    """Public module-level functions and public methods of classes whose bases all
    lie in the package (a method of a foreign subclass may be a hook its base
    calls), each with its place."""
    classes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}

    def internal(cls: ast.ClassDef) -> bool:
        return all(isinstance(b, ast.Name) and b.id in classes and internal(classes[b.id]) for b in cls.bases)

    names = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names[node.name] = f"{module}:{node.lineno}"
            elif isinstance(node, ast.ClassDef) and internal(node):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        names[f"{node.name}.{item.name}"] = f"{module}:{item.lineno}"
    return names


def test_every_public_definition_is_referenced():
    files = [path for top in ("src", "tests", "bench") for path in sorted((REPO / top).rglob("*.py"))]
    refs = set().union(*(references(parse(path)) for path in files))
    definitions = public_definitions({path.name: parse(path) for path in MODULES})
    orphans = [f"{where} {name}" for name, where in definitions.items() if name.split(".")[-1] not in refs]
    assert not orphans, f"public names nothing in src, tests or bench references: {orphans}"
