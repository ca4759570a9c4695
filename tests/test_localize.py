"""Per-configuration assembly, side sums, and the invariants."""

import functools
import hashlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from multicover import localize
from multicover.cli import _print_breakdown
from multicover.contributions import (
    _step_coefficient,
    end_contribution,
    node_smoothing,
    psi_integral,
    ruled_contribution,
)
from multicover.exact import MONO_ONE, AlphaMonomial, alpha_flip
from multicover.fixedpoints import (
    Chain,
    Configuration,
    Contact,
    Family,
    MonoH,
    MonoK,
    UnsupportedDegreeError,
    _step_candidates,
    base_tangent_weight,
    enumerate_chains,
    enumerate_configurations,
    make_kind,
)
from multicover.localize import (
    DegreeZeroViolation,
    chain_factors,
    configuration_contribution,
    multiple_cover_invariant,
    side_sum,
    step_factors,
)

F = Fraction


def mono(c, p=0):
    return AlphaMonomial(F(*c) if isinstance(c, tuple) else F(c), p)


def product(factors):
    out = MONO_ONE
    for f in factors:
        out = out * f
    return out


@functools.lru_cache(maxsize=None)
def monomial_state_sum(contact, m, w):
    """The one-sided sum from state ``(contact, m, w)`` by a second path: the
    same rows of :func:`_step_candidates`, less those with ``w + w_in == 0``,
    but each term is the monomial ``node_smoothing * step_factors product *
    tail``, its power checked against 2 - 3m before its coefficient is summed."""
    total = F(0)
    for kind, w_in, nxt in _step_candidates(contact, m):
        if w + w_in == 0:
            continue
        term = node_smoothing(w, w_in) * product(f for _, f in step_factors(kind))
        if nxt is not None:
            term = term * monomial_state_sum(*nxt)
        assert term.coeff == 0 or term.power == 2 - 3 * m, (kind.describe(), term)
        total += term.coeff
    return AlphaMonomial(total, 2 - 3 * m)


def assert_oracle_agrees(degrees):
    """side_sum against :func:`monomial_state_sum` at each degree; CI runs
    this past tier-1's range with ``PYTHONPATH=src:tests``."""
    for d in degrees:
        oracle = monomial_state_sum(Contact.P0, d, base_tangent_weight(d))
        assert side_sum(d, "zero") == oracle, d


def assert_step_coefficients_agree(degrees):
    """:func:`_step_coefficient` against the coefficient of the
    :func:`step_factors` product, whose power must be 3*out - 3m + 1 on a
    ruled row and 3 - 3m on an end row (the power the state sum assumes),
    and the labels of :func:`step_factors`: ``main`` (a family's
    ``main_psi_coeff`` and ``psi_integral``), ``divisor_tangent`` on a ruled
    row and ``automorphisms`` unless q == 1, for every admitted kind of each
    degree m; CI runs this past tier-1's range like
    :func:`assert_oracle_agrees`."""
    for m in degrees:
        for contact in Contact:
            for kind, _, _ in _step_candidates(contact, m):
                factors = step_factors(kind)
                expected = product(f for _, f in factors)
                power = 3 - 3 * m if kind.is_end_bubble else 3 * kind.outgoing_exponent - 3 * m + 1
                assert (_step_coefficient(kind), expected.power) == (expected.coeff, power), kind
                s = kind.shape
                q = m - (s.h if isinstance(s, MonoH) else s.k)
                labels = ["main_psi_coeff", "psi_integral"] if isinstance(s, Family) else ["main"]
                labels += ["divisor_tangent"] * (not kind.is_end_bubble) + ["automorphisms"] * (q != 1)
                assert [label for label, _ in factors] == labels, kind


# sha256 over the lines f"{d}\t{N_d}\n" for d = 2..60, the plain cap
VALUES_DIGEST = "a1381674b5601d233554889024a0695fd4340e01a5c8bf450f2852957490ba72"

# states in the table after a cold degree d: every bubble below d is built,
# so bubbles the root does not reach, such as (P0, d - 1), add a few
STATE_COUNTS = {10: 157, 20: 802, 40: 3592, 60: 8382}


def cold_values(degrees):
    """The invariants at ``degrees``, evaluated in that order from an empty
    state table."""
    localize._TABLE.clear()
    return [multiple_cover_invariant(d) for d in degrees]


def assert_values_digest(degrees=range(2, 61)):
    """Every plain value up to the cap against :data:`VALUES_DIGEST`,
    evaluated in the order of ``degrees`` from a cold table; CI runs this
    ascending and descending beside :func:`assert_oracle_agrees`."""
    values = dict(zip(degrees, cold_values(degrees)))
    assert sorted(values) == list(range(2, 61))
    lines = "".join(f"{d}\t{values[d]}\n" for d in sorted(values))
    assert hashlib.sha256(lines.encode()).hexdigest() == VALUES_DIGEST


def assert_state_count(d):
    """The table's state count after a cold degree d, against
    :data:`STATE_COUNTS`; CI runs this at d = 60."""
    cold_values([d])
    assert sum(len(sums) for _, _, sums in localize._TABLE.values()) == STATE_COUNTS[d], d


def assert_value_structure(degrees):
    """For each d, N_d's denominator has no prime factor above 3d and
    -d*N_d is the square of a rational; tier-1 takes d = 2..40, CI the rest
    of the plain cap."""
    for d in degrees:
        value = multiple_cover_invariant(d)
        den = value.denominator
        for p in range(2, 3 * d + 1):
            while den % p == 0:
                den //= p
        assert den == 1, d
        square = -d * value
        assert square > 0, d
        for n in (square.numerator, square.denominator):
            assert math.isqrt(n) ** 2 == n, d


def find_config(d, zero_shape, inf_shape):
    for cfg in enumerate_configurations(d):
        if (
            cfg.chain_zero.steps[0].shape == zero_shape
            and cfg.chain_infinity.steps[0].shape == inf_shape
        ):
            return cfg
    raise AssertionError("configuration not found")


# -- double-cover golden trace ---------------------------------------------------

def test_double_cover_side_sum():
    assert side_sum(2, "zero") == mono((2, 15), -4)
    assert side_sum(2, "infinity") == mono((2, 15), -4)


def test_double_cover_configuration_totals():
    totals = {}
    for cfg in enumerate_configurations(2):
        z = type(cfg.chain_zero.steps[0].shape).__name__
        i = type(cfg.chain_infinity.steps[0].shape).__name__
        totals[(z, i)] = configuration_contribution(cfg).total.coeff
    assert totals[("MonoK", "MonoK")] == F(-1, 32)
    assert totals[("MonoK", "MonoH")] == F(3, 160)
    assert totals[("MonoH", "MonoK")] == F(3, 160)
    assert totals[("MonoH", "MonoH")] == F(-9, 800)
    assert sum(totals.values()) == F(-1, 200)


def test_double_cover_trace_factors():
    cfg = find_config(2, MonoK(1), MonoK(1))
    report = configuration_contribution(cfg)
    trace = dict(report.per_factor_trace)
    assert trace["base"] == mono((-9, 32), 8)
    assert trace["zero.smooth[base->1]"] == mono((-2, 3), -1)
    assert trace["zero.step1.main"] == mono((-1, 2), -3)
    # infinity-side entries are stored already flipped
    assert trace["infinity.smooth[base->1]"] == mono((2, 3), -1)
    assert trace["infinity.step1.main"] == mono((1, 2), -3)


def test_trace_multiplies_to_total():
    for cfg in enumerate_configurations(3):
        report = configuration_contribution(cfg)
        product = AlphaMonomial(F(1))
        for _, value in report.per_factor_trace:
            assert isinstance(value, AlphaMonomial)
            product = product * value
        assert product == report.total


def test_list_built_chain_gives_the_same_total():
    # a chain built from a list of steps is the tuple-built chain: equal,
    # equally hashed, and traced to the same total
    tupled = enumerate_chains(2)[0]
    listed = Chain(list(tupled.steps))
    assert listed == tupled and hash(listed) == hash(tupled)
    total = configuration_contribution(Configuration(2, listed, listed)).total
    assert total == configuration_contribution(Configuration(2, tupled, tupled)).total


def test_family_steps_traced_with_integral():
    chain = next(
        c for c in enumerate_chains(4)
        if any(type(s.shape).__name__ == "Family" for s in c.steps)
    )
    labels = [label for label, _ in chain_factors(chain)]
    assert "step1.main_psi_coeff" in labels
    assert "step1.psi_integral" in labels


# -- structural properties ---------------------------------------------------------

def test_factored_identity_double_cover():
    s = side_sum(2, "zero")
    assert mono((-9, 32), 8) * s * alpha_flip(s) == mono((-1, 200), 0)


def test_invariant_negative_through_degree_nine():
    for d in range(2, 10):
        assert multiple_cover_invariant(d) < 0


def test_headline_values():
    assert multiple_cover_invariant(2) == F(-1, 200)
    assert multiple_cover_invariant(3) == F(-(5**2 * 43**2), 3**13 * 7**2)


# -- evaluation paths ---------------------------------------------------------------

@pytest.mark.parametrize("d", range(2, 10))
def test_state_sum_matches_chain_enumeration(d):
    chain_sum = F(0)
    for chain in enumerate_chains(d):
        chain_product = product(m for _, m in chain_factors(chain))
        assert chain_product.power == 2 - 3 * d, chain.describe()
        chain_sum += chain_product.coeff
    assert side_sum(d, "zero") == AlphaMonomial(chain_sum, 2 - 3 * d)


def test_state_sum_matches_monomial_oracle():
    # memo states are shared across degrees, so d = 10..20 costs about d = 20
    assert_oracle_agrees(range(10, 21))


def test_call_order_does_not_change_values():
    # the table keeps bubble records and state sums across degrees
    nine = cold_values([9])
    assert cold_values([20, 9])[1:] == nine
    assert cold_values([60, 9])[1:] == nine
    ascending = cold_values(range(2, 13))
    assert cold_values(range(12, 1, -1)) == ascending[::-1]
    assert ascending[7:8] == nine


@pytest.mark.parametrize("d", [10, 20, 40])
def test_state_count_ladder(d):
    assert_state_count(d)


def test_table_holds_every_reached_state():
    # at a cold degree 10 the kept rows (w + w_in != 0) reach 146 states from
    # the root; the table's other 11 lie in bubbles the root never enters,
    # like (P0, 9)
    seen = set()
    todo = [(Contact.P0, 10, base_tangent_weight(10))]
    while todo:
        state = todo.pop()
        if state not in seen:
            seen.add(state)
            contact, m, w = state
            todo.extend(
                nxt for _, w_in, nxt in _step_candidates(contact, m)
                if nxt is not None and w + w_in != 0
            )
    cold_values([10])
    table = {(c, m, F(*w)) for (c, m), (_, _, sums) in localize._TABLE.items() for w in sums}
    assert seen <= table
    assert (len(seen), len(table - seen)) == (146, 11)


def test_step_coefficient_matches_factor_product():
    # 4372 kinds; the row products of the state sum use only the closed form
    assert_step_coefficients_agree(range(2, 40))


def test_value_structure_through_degree_forty():
    assert_value_structure(range(2, 41))


def test_values_beyond_the_table_match_frozen():
    # the state sum above d = 9 against the values frozen for the benchmark
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "frozen.txt"
    frozen = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            degree, value, _ = line.split("\t")
            frozen[int(degree)] = F(value)
    assert sorted(frozen) == [10, 11, 12, 13]
    for d, value in frozen.items():
        assert multiple_cover_invariant(d) == value, d


def test_step_factors_match_bundles_and_chain_traces():
    for m in range(2, 7):
        for contact in Contact:
            for kind, _, _ in _step_candidates(contact, m):
                evaluate = end_contribution if kind.is_end_bubble else ruled_contribution
                bundle = evaluate(kind)
                main = bundle.main
                if isinstance(kind.shape, Family):
                    main = main * psi_integral(kind.degree, kind.shape.h)
                expected = main * bundle.auxiliary * bundle.automorphism_scale
                assert product(f for _, f in step_factors(kind)) == expected
        for chain in enumerate_chains(m):
            trace = chain_factors(chain)
            for i, step in enumerate(chain.steps, 1):
                entries = [f for label, f in trace if label.startswith(f"step{i}.")]
                assert product(entries) == product(f for _, f in step_factors(step))


@pytest.mark.parametrize("d", range(2, 9))
def test_pairwise_matches_factored(d):
    assert multiple_cover_invariant(d, method="pairwise") == multiple_cover_invariant(d)


def test_order_independence():
    rng = random.Random(20260809)
    for d in (2, 3, 4):
        configs = enumerate_configurations(d)
        rng.shuffle(configs)
        permuted = sum(configuration_contribution(c).total.coeff for c in configs)
        assert permuted == multiple_cover_invariant(d)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        multiple_cover_invariant(2, method="fast")


def test_low_degree_propagates():
    for d in (-1, 0, 1):
        for method in ("factored", "pairwise"):
            with pytest.raises(UnsupportedDegreeError):
                multiple_cover_invariant(d, method=method)
    with pytest.raises(UnsupportedDegreeError):
        side_sum(1, "zero")


# each per-configuration entry point names chain 2 of degree 3 when its
# factors get a wrong power; configuration 6 pairs chains 1 and 2, so chain
# 2 is its infinity side and the zero side's chain passes
@pytest.mark.parametrize("entry", ["configuration", "pairwise", "breakdown"])
def test_nonzero_side_power_names_configuration(monkeypatch, entry):
    cfg = enumerate_configurations(3)[6]
    target = cfg.chain_infinity
    assert cfg.chain_zero != target
    real_chain_factors = localize.chain_factors
    bump = (("bump", mono(1, 1)),)
    monkeypatch.setattr(
        localize,
        "chain_factors",
        lambda chain: real_chain_factors(chain) + (bump if chain == target else ()),
    )
    out = io.StringIO()
    evaluate = {
        "configuration": lambda: configuration_contribution(cfg),
        "pairwise": lambda: multiple_cover_invariant(3, method="pairwise"),
        "breakdown": lambda: _print_breakdown(3, out),
    }[entry]
    with pytest.raises(DegreeZeroViolation) as excinfo:
        evaluate()
    trace = [f"  {label} = {m}" for label, m in real_chain_factors(target) + bump]
    assert str(excinfo.value) == (
        f"chain {target.describe()} has power -6, expected -7; trace:\n" + "\n".join(trace)
    )
    assert out.getvalue() == ""  # a breakdown raises before its first record


def test_side_sum_validates_side():
    with pytest.raises(ValueError):
        side_sum(2, "above")
