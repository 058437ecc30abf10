"""The mixkd modules import one another without a cycle."""

import ast
from pathlib import Path

import mixkd

PACKAGE = Path(mixkd.__file__).parent


def _imports(path: Path, modules: set) -> set:
    """The mixkd modules that ``path`` imports anywhere in its body,
    including inside functions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:          # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1:                        # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("mixkd."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("mixkd."))
    return found & modules


def import_graph(package: Path = PACKAGE) -> dict:
    paths = {p.stem: p for p in package.glob("*.py") if p.stem != "__init__"}
    return {name: _imports(path, set(paths)) for name, path in paths.items()}


def find_cycle(graph: dict):
    """One import cycle as a list of modules, first == last, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for dep in sorted(graph[name]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return None


def test_find_cycle_sees_in_function_imports(tmp_path):
    (tmp_path / "a.py").write_text("from . import b\n")
    (tmp_path / "b.py").write_text("def f():\n    from .a import g\n")
    (tmp_path / "c.py").write_text("import mixkd.a\n")
    graph = import_graph(tmp_path)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    assert find_cycle(graph) == ["a", "b", "a"]


def test_mixkd_imports_have_no_cycle():
    graph = import_graph()
    assert {"distill", "evaluation", "model"} <= set(graph)
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))
