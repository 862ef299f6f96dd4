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


def test_scipy_comes_in_only_through_scipy_integrate():
    # solve_ivp: the Hamiltonian oracle of geometry, and the binding in waves
    # that the benchmark tracer patches; peaks and panel edges use numpy only
    found = set()
    for path in Path(hyperlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                found.add(node.module)
            elif isinstance(node, ast.Import):
                found.update(a.name for a in node.names if a.name.startswith("scipy"))
    assert found == {"scipy.integrate"}


def _name(node):
    """The name a Name, an Attribute or a Call refers to, else None."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _const(node):
    return node.value if isinstance(node, ast.Constant) else None


def _bound_statements(tree):
    """Lines that state a field, scale, length, angle, band, window or packet-centre bound,
    or a speed level, or compute the reached degree [Bs] as a floor of a product."""
    raising = {id(c) for node in ast.walk(tree) if isinstance(node, ast.If)
               and any(isinstance(s, ast.Raise) for s in node.body)
               for c in ast.walk(node.test)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node) == "floor" and any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in ast.walk(node)):
            found.append((node.lineno, "floor of a product"))
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        names = {_name(n) for side in sides for n in ast.walk(side)}
        absolute = [n for n in sides if isinstance(n, ast.Call) and _name(n) in ("abs", "fabs")]
        bounds = {_const(n) for n in sides} | {
            _const(n.right) for n in sides if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)}
        if names & {"pi", "_HALF_PI"}:
            found.append((node.lineno, "angle"))
        elif absolute and bounds & {0.5, 1, 2}:  # |x| against 1/2, 1 or s/2
            found.append((node.lineno, "band, window or centre"))
        elif any("speed" in ast.dump(n) for n in absolute):
            found.append((node.lineno, "speed level"))
        elif id(node) in raising and {_name(n) for n in sides} & {
                "B", "B1", "s", "L", "length", "arc_length"} and 0 in bounds:
            found.append((node.lineno, "field, scale or length"))
    return found


def test_the_admissible_window_is_stated_only_in_base():
    # one spelling per input domain: every other module calls the base checks (the
    # speed level reads a tangent vector, so geometry's check_speed holds it)
    package = Path(hyperlab.__file__).parent
    scripts = Path(__file__).parents[1] / "scripts"
    found = []
    for path in [*package.glob("*.py"), *scripts.glob("*.py")]:
        if path.stem == "base":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {n.lineno for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                   and f.name == "check_speed" and path.stem == "geometry"
                   for n in ast.walk(f) if hasattr(n, "lineno")}
        found += [(path.name, line, what) for line, what in _bound_statements(tree)
                  if line not in allowed]
    assert found == []
