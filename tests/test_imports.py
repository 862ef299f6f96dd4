"""Imports inside the package run one way: base, then the four core layers,
then quantize and ergodic, then the CLI."""

import ast
from pathlib import Path

import hyperlab

LAYER = {"base": 0, "geometry": 1, "groups": 1, "waves": 1, "transport": 1,
         "quantize": 2, "ergodic": 2, "cli": 3}


def _package_imports():
    """module -> set of hyperlab modules it imports, at any depth."""
    graph = {}
    for path in Path(hyperlab.__file__).parent.glob("*.py"):
        if path.stem == "__init__":
            continue
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:  # from . import x
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def test_every_module_has_a_layer():
    assert set(_package_imports()) == set(LAYER)


def test_imports_run_down_the_layers_without_a_cycle():
    graph = _package_imports()
    upward = [(mod, dep) for mod, deps in graph.items() for dep in deps
              if LAYER[dep] > LAYER[mod]]
    assert upward == []
    # same-layer imports are allowed only while they form no cycle
    state = {}

    def visit(mod, path):
        if state.get(mod) == "done":
            return
        assert state.get(mod) != "open", f"import cycle {path}"
        state[mod] = "open"
        for dep in sorted(graph[mod]):
            visit(dep, path + [dep])
        state[mod] = "done"

    for mod in sorted(graph):
        visit(mod, [mod])
