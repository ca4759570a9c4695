"""What each test-side oracle shares with the library, read from its code."""

import ast
import importlib.util
import inspect
from pathlib import Path

import oracles

# For each oracle of tests/oracles.py, every multicover object it reads,
# itself or through the oracles.py functions it calls, named where the
# object is defined: an "independent" path is independent of everything
# but these.  A name added to an oracle, or one it no longer reads, fails
# test_shares_table_is_exact until this table says so.
SHARES = {
    "pairwise_invariant": {
        "multicover.contributions.base_contribution",
        "multicover.fixedpoints.enumerate_chains",
        "multicover.localize._chain_record",
    },
    "monomial_state_sum": {
        "multicover.contributions.node_smoothing",
        "multicover.contributions.step_factors",
        "multicover.exact.AlphaMonomial",
        "multicover.fixedpoints.FixedMapKind",
        "multicover.fixedpoints._step_candidates",
    },
    "walk_rows": {
        "multicover.fixedpoints.Chain",
        "multicover.fixedpoints.Contact",
        "multicover.fixedpoints.FixedMapKind",
        "multicover.fixedpoints._step_candidates",
        "multicover.fixedpoints.base_tangent_weight",
    },
    "family_sum_loop": set(),
    "v4_weights": {
        "multicover.fixedpoints.Contact",
        "multicover.fixedpoints.MonoH",
    },
    "assert_state_denominators": {
        "multicover.localize._TABLE",
        "multicover.localize.multiple_cover_invariant",
    },
}


def _tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _imports(module):
    """Each top-level ``from X import Y as Z`` of ``module``, by Z: the
    absolute module X and the name Y."""
    package = module.__spec__.parent
    return {
        alias.asname or alias.name: (
            importlib.util.resolve_name("." * node.level + (node.module or ""), package),
            alias.name,
        )
        for node in _tree(module).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _home(module_name, name):
    """Where ``module_name.name`` is defined: a function's or class's own
    module and qualified name, or, for a constant, the module that binds it
    other than by importing it."""
    while True:
        module = importlib.import_module(module_name)
        value = getattr(module, name)
        if hasattr(value, "__qualname__"):  # a function, a class or an lru_cache wrapper
            return f"{value.__module__}.{value.__qualname__}"
        imports = _imports(module)
        if name not in imports:
            return f"{module_name}.{name}"
        module_name, name = imports[name]


def _shares(oracle):
    """The multicover objects ``oracle`` reads, following its calls into
    the other functions of oracles.py."""
    homes = {}  # a local name: an imported multicover module, or an object's home
    for local, (module, name) in _imports(oracles).items():
        if module.split(".")[0] == "multicover":
            value = getattr(importlib.import_module(module), name)
            homes[local] = value if inspect.ismodule(value) else _home(module, name)
    functions = {n.name: n for n in _tree(oracles).body if isinstance(n, ast.FunctionDef)}
    shared, seen, todo = set(), set(), [oracle]
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(functions[fn]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = homes.get(node.value.id)
                if inspect.ismodule(module):
                    shared.add(_home(module.__name__, node.attr))
            elif isinstance(node, ast.Name):
                if node.id in functions:
                    todo.append(node.id)
                elif isinstance(homes.get(node.id), str):
                    shared.add(homes[node.id])
    return shared


def test_shares_table_is_exact():
    assert {oracle: _shares(oracle) for oracle in SHARES} == SHARES


def test_no_test_module_imports_another():
    # the oracles and their helpers live in oracles.py, not in a test module
    crossings = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            crossings += [f"{path.name}:{node.lineno} {n}" for n in names if n.startswith("test_")]
    assert crossings == []
