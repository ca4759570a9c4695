"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
comparison is exact rational equality, with the stated runtime budgets.
"""

import ast
import importlib
import random
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import multicover
from multicover import cli, contributions, exact, fixedpoints, localize
from multicover.cli import load_reference_table
from multicover.contributions import base_contribution, end_contribution, node_smoothing
from multicover.exact import AlphaMonomial, alpha_flip, format_factored, parse_factored
from multicover.fixedpoints import (
    Contact,
    FixedMapKind,
    MonoH,
    MonoK,
    enumerate_chains,
    enumerate_configurations,
    source_tangent_weight,
)
from multicover.localize import (
    configuration_contribution,
    multiple_cover_invariant,
    side_sum,
)
from oracles import pairwise_invariant

F = Fraction


def report(number, ok, detail):
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# every process-wide memo in the package; the state table is cleared on its own,
# and factoring keeps none: each ECM level's tables belong to the _ecm call
CACHES = (
    fixedpoints._step_candidates,
    contributions.step_factors,
    contributions._harmonic,
)


def cold_caches():
    localize._TABLE.clear()
    for cache in CACHES:
        cache.cache_clear()


def _qualified(function):
    return f"{function.__module__}.{function.__qualname__}"


def test_cold_caches_clears_every_cache():
    # criteria 3 and 4 time a cold run only if cold_caches() knows every cache,
    # so a new process-wide memo fails here until it is added to CACHES
    multiple_cover_invariant(3)
    configuration_contribution(enumerate_configurations(2)[0])
    exact.factorize(1000003 * 1000033)
    assert localize._TABLE
    cold_caches()
    caches = {
        f"{module.__name__}.{name}": value
        for module in list(sys.modules.values())
        if module is not None and module.__name__.startswith("multicover")
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert {_qualified(f) for f in caches.values()} == {_qualified(f) for f in CACHES}
    sizes = {name: f.cache_info().currsize for name, f in caches.items()}
    # the state table is a plain dict, with no cache_info to find it by
    sizes["multicover.localize._TABLE"] = len(localize._TABLE)
    assert {name: size for name, size in sizes.items() if size} == {}


def test_plain_path_fills_no_step_factors_cache():
    # the state sum takes each row's coefficient from _step_coefficient;
    # step_factors and its cache serve only the chain paths
    cold_caches()
    multiple_cover_invariant(20)
    assert contributions.step_factors.cache_info().currsize == 0


def test_cold_path_builds_fractions_independent_of_degree(monkeypatch):
    # rows and states are int pairs, so a cold call builds the same few
    # Fractions at any degree, none per row or per state
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    counts = []
    for d in (10, 20, 30):
        cold_caches()
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        multiple_cover_invariant(d)
        monkeypatch.undo()
        counts.append(len(built))
        built.clear()
    assert counts[0] == counts[1] == counts[2] < 20, counts


def test_cold_state_table_builds_no_kinds(monkeypatch):
    # the state table reads each row's shape, so a cold call builds no
    # FixedMapKind: no kind is built where no caller receives one
    built = []
    init = FixedMapKind.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    cold_caches()
    monkeypatch.setattr(FixedMapKind, "__init__", counting)
    multiple_cover_invariant(20)
    assert built == []
    enumerate_chains(2)  # the counter does see kinds: the walk builds (P0, 2)'s two rows
    monkeypatch.undo()
    assert built == [(Contact.P0, 2, MonoH(1)), (Contact.P0, 2, MonoK(1))]


def test_no_library_function_calls_itself():
    # pending work lives in explicit data (the state table, the lists of
    # the chain walk and the factorizer), not in the frames of a recursion
    selves = []
    for path in sorted(Path(localize.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    by_name = callee.value.id in ("self", "cls") and callee.attr == fn.name
                else:
                    by_name = isinstance(callee, ast.Name) and callee.id == fn.name
                if by_name:
                    selves.append(f"{path.name}:{call.lineno} {fn.name}")
    assert selves == []


# The public surface: the top-level names of the package, sorted, and each
# module's __all__ as written.  An API change shows up in this table's diff.
PUBLIC = {
    multicover: [
        "AlphaMonomial", "Chain", "Configuration", "ConfigurationReport", "Contact",
        "DegenerateNodeError", "FactoredRational", "Family", "FixedMapKind",
        "MonoH", "MonoK", "UnsupportedDegreeError", "alpha_flip", "base_contribution",
        "configuration_contribution", "end_contribution", "enumerate_chains",
        "enumerate_configurations", "format_factored", "multiple_cover_invariant",
        "node_smoothing", "parse_factored", "psi_integral", "ruled_contribution", "side_sum",
        "source_tangent_weight",
    ],
    exact: [
        "AlphaMonomial", "FactoredRational", "FactoredFormatError", "alpha_flip",
        "format_factored", "parse_factored", "factorize", "is_prime",
    ],
    fixedpoints: [
        "Contact", "Family", "MonoH", "MonoK", "FixedMapKind", "Chain", "Configuration",
        "UnsupportedDegreeError", "InvalidKindError", "Shape", "source_tangent_weight",
        "base_tangent_weight", "transition", "enumerate_chains", "enumerate_configurations",
    ],
    contributions: [
        "DegenerateNodeError", "base_contribution", "ruled_contribution",
        "end_contribution", "psi_integral", "step_factors", "node_smoothing",
    ],
    localize: [
        "ConfigurationReport", "DegreeZeroViolation", "chain_factors",
        "configuration_contribution", "side_sum", "multiple_cover_invariant",
    ],
    cli: ["ReferenceTable", "load_reference_table", "main"],
}


def test_public_surface():
    # the package has no __all__: its names are read from its namespace, less the
    # submodules, which it holds or not depending on what was imported
    top = sorted(
        name
        for name, value in vars(multicover).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    surface = {module: list(getattr(module, "__all__", top)) for module in PUBLIC}
    assert surface == PUBLIC


def test_bench_wrapped_names_exist():
    # the bench tracer wraps layer functions by name, so a removed or renamed
    # one fails here, not only in CI's traced bench run; bench/spans.py is
    # parsed, not imported, as its WRAPPED table is a literal
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED"
    ]
    missing = [
        f"{layer}.{name}"
        for layer, names in wrapped.items()
        for name in names
        if not hasattr(importlib.import_module(f"multicover.{layer}"), name)
    ]
    assert wrapped and missing == []


def best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_base_formula():
    value = base_contribution(2)
    exact = value == AlphaMonomial(F(-9, 32), 8)
    runtime = best_time(lambda: base_contribution(2))
    report(
        1,
        exact and runtime < 1e-3,
        f"base_contribution(2) = {value}, runtime {runtime*1e6:.1f}us (< 1ms)",
    )


def test_criterion_2_worked_intermediates():
    base_w = F(-1, 2)
    short_k = FixedMapKind(Contact.P0, 2, MonoK(1))
    short_h = FixedMapKind(Contact.P0, 2, MonoH(1))
    checks = [
        node_smoothing(base_w, source_tangent_weight(short_k))
        == AlphaMonomial(F(-2, 3), -1),
        node_smoothing(base_w, source_tangent_weight(short_h))
        == AlphaMonomial(F(-2, 5), -1),
        dict(end_contribution(short_k))["main"] == AlphaMonomial(F(-1, 2), -3),
        dict(end_contribution(short_h))["main"] == AlphaMonomial(F(1, 2), -3),
        side_sum(2, "zero") == AlphaMonomial(F(2, 15), -4),
    ]
    report(2, all(checks), f"double-cover intermediates exact ({sum(checks)}/5)")


def test_criterion_3_headline_value():
    cold_caches()
    t0 = time.perf_counter()
    value = multiple_cover_invariant(2)
    runtime = time.perf_counter() - t0
    ok = value == F(-1, 200) and runtime < 1.0
    report(3, ok, f"invariant(2) = {value} = {format_factored(value)}, {runtime:.3f}s (< 1s)")


def test_criterion_4_full_table():
    table = load_reference_table()
    cold_caches()
    t0 = time.perf_counter()
    rows = []
    all_ok = True
    for d in range(3, 10):
        got = multiple_cover_invariant(d)
        want = parse_factored(table.rows[d].text())
        ok = got == want
        all_ok = all_ok and ok
        rows.append(f"d={d} {'ok' if ok else 'MISMATCH (see compute --breakdown)'}")
    runtime = time.perf_counter() - t0
    report(
        4,
        all_ok and runtime < 60.0,
        f"table rows exact [{', '.join(rows)}], {runtime:.2f}s (< 60s)",
    )


def test_criterion_5_degree_zero_property():
    count = 0
    ok = True
    for d in range(2, 7):
        for cfg in enumerate_configurations(d):
            ok = ok and configuration_contribution(cfg).total.power == 0
            count += 1
    report(5, ok, f"all {count} configuration totals for d <= 6 have power 0")


def test_criterion_6_flip_symmetry():
    ok = all(
        side_sum(d, "infinity") == alpha_flip(side_sum(d, "zero"))
        for d in range(2, 7)
    )
    report(6, ok, "side_sum(d, infinity) = flip(side_sum(d, zero)) for d = 2..6")


_SMALL_POOL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
               59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
_LARGE_POOL = [1009, 65537, 1000003, 1000000007, 122439620123,
               49789008475889939]


def _random_tractable_rational(rng):
    """Nonzero rational with factorable support; magnitudes up to 2^256.

    Cryptographic-scale semiprimes are explicitly out of scope for the
    factored printer, so the support is drawn from known primes.
    """
    cap = 1 << 256

    def build():
        value = 1
        for p in rng.sample(_SMALL_POOL, rng.randrange(0, 5)):
            if value * p**5 < cap:
                value *= p ** rng.randrange(1, 6)
        if rng.random() < 0.1:
            p = rng.choice(_LARGE_POOL)
            if value * p < cap:
                value *= p
        if rng.random() < 0.3:
            value <<= rng.randrange(0, 255 - value.bit_length())
        return value

    return F(rng.choice([1, -1]) * build(), build())


def test_criterion_7_round_trip():
    rng = random.Random(0x5EED)
    n = 10_000
    ok = True
    for _ in range(n):
        q = _random_tractable_rational(rng)
        if parse_factored(format_factored(q)) != q:
            ok = False
            break
    report(7, ok, f"parse(format(q)) == q over {n} random rationals (< 2^256)")


def test_criterion_8_determinism():
    rng = random.Random(1729)
    ok = True
    for d in range(2, 6):
        reference = multiple_cover_invariant(d)
        serial = pairwise_invariant(d)
        configs = enumerate_configurations(d)
        rng.shuffle(configs)
        permuted = sum(configuration_contribution(c).total.coeff for c in configs)
        ok = ok and serial == permuted == reference
    report(8, ok, "serial and permuted sums bit-identical to the state sum for d = 2..5")
