"""Per-configuration assembly, side sums, and the invariants."""

import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from multicover import localize
from multicover.cli import _print_breakdown
from multicover.contributions import base_contribution, psi_integral
from multicover.exact import AlphaMonomial, alpha_flip
from multicover.fixedpoints import (
    Chain,
    Configuration,
    Contact,
    FixedMapKind,
    MonoK,
    UnsupportedDegreeError,
    _step_candidates,
    base_tangent_weight,
    enumerate_chains,
    enumerate_configurations,
)
from multicover.localize import (
    DegreeZeroViolation,
    chain_factors,
    configuration_contribution,
    multiple_cover_invariant,
    side_sum,
    step_factors,
)
from oracles import (
    assert_oracle_agrees,
    assert_state_count,
    assert_state_denominators,
    assert_step_coefficients_agree,
    assert_value_structure,
    cold_values,
    mono,
    pairwise_invariant,
    product,
)

F = Fraction


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
    todo = [(Contact.P0, 10, base_tangent_weight(10).as_integer_ratio())]
    while todo:
        state = todo.pop()
        if state not in seen:
            seen.add(state)
            contact, m, w = state
            todo.extend(
                nxt for _, w_in, nxt in _step_candidates(contact, m)
                if nxt is not None and F(*w) + F(*w_in) != 0
            )
    cold_values([10])
    table = {(c, m, w) for (c, m), (_, _, sums) in localize._TABLE.items() for w in sums}
    assert seen <= table
    assert (len(seen), len(table - seen)) == (146, 11)


def test_step_coefficient_matches_factor_product():
    # 4372 kinds; the row products of the state sum use only the closed form
    assert_step_coefficients_agree(range(2, 40))


def test_value_structure_through_degree_forty():
    assert_value_structure(range(2, 41))


def test_state_table_holds_only_ints():
    # rows and state sums are ints and reduced (numerator, denominator) pairs;
    # the root's pair is the one side sum that becomes a Fraction
    cold_values([20])
    for rows, L, sums in localize._TABLE.values():
        assert type(L) is int
        for row in rows:
            assert type(row) is tuple and all(type(x) is int for x in row), row
        for n, r in sums.values():
            assert type(n) is int and type(r) is int and r > 0, (n, r)
            assert F(n, r).as_integer_ratio() == (n, r)
    root = localize._TABLE[Contact.P0, 20][2][-1, 20]
    assert F(*root) == side_sum(20, "zero").coeff


def test_state_denominators_at_degree_forty():
    # all 3592 state sums of a cold d = 40, not only the value they add up to
    assert_state_denominators(40)


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


def test_step_factors_match_chain_traces():
    for m in range(2, 7):
        for chain in enumerate_chains(m):
            trace = chain_factors(chain)
            for i, step in enumerate(chain.steps, 1):
                entries = [f for label, f in trace if label.startswith(f"step{i}.")]
                assert product(entries) == product(f for _, f in step_factors(step))


@pytest.mark.parametrize("d", range(2, 9))
def test_pairwise_matches_factored(d):
    assert pairwise_invariant(d) == multiple_cover_invariant(d)


def test_order_independence():
    rng = random.Random(20260809)
    for d in (2, 3, 4):
        configs = enumerate_configurations(d)
        rng.shuffle(configs)
        permuted = sum(configuration_contribution(c).total.coeff for c in configs)
        assert permuted == multiple_cover_invariant(d)


def test_unknown_method_rejected():
    # one evaluation path: the chain-by-chain sum is the test oracle
    # pairwise_invariant, and a method= keyword is no longer accepted
    with pytest.raises(TypeError, match="unexpected keyword argument 'method'"):
        multiple_cover_invariant(2, method="pairwise")


def test_low_degree_propagates():
    for d in (-1, 0, 1, True):
        for evaluate in (multiple_cover_invariant, pairwise_invariant):
            with pytest.raises(UnsupportedDegreeError):
                evaluate(d)
    with pytest.raises(UnsupportedDegreeError):
        side_sum(1, "zero")


@pytest.mark.parametrize(
    "entry",
    [
        multiple_cover_invariant,
        lambda d: side_sum(d, "zero"),
        enumerate_chains,
        enumerate_configurations,
        base_contribution,
        base_tangent_weight,
        lambda d: psi_integral(d, 1),
    ],
    ids=[
        "multiple_cover_invariant",
        "side_sum",
        "enumerate_chains",
        "enumerate_configurations",
        "base_contribution",
        "base_tangent_weight",
        "psi_integral",
    ],
)
@pytest.mark.parametrize(
    "degree, shown",
    [(2.0, "2.0 (float)"), ("3", "'3' (str)"), (F(3), "Fraction(3, 1) (Fraction)")],
    ids=["float", "str", "Fraction"],
)
def test_degree_must_be_an_integer(entry, degree, shown):
    # each library entry point takes the degree through operator.index
    with pytest.raises(TypeError) as excinfo:
        entry(degree)
    assert str(excinfo.value) == f"degree must be an integer, got {shown}"


def test_degree_read_through_index():
    # an integer type other than int (a NumPy integer, say) counts as its index
    class Three:
        def __index__(self):
            return 3

    assert multiple_cover_invariant(Three()) == multiple_cover_invariant(3)
    assert side_sum(Three(), "zero") == side_sum(3, "zero")
    assert enumerate_chains(Three()) == enumerate_chains(3)
    assert enumerate_configurations(Three()) == enumerate_configurations(3)


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
        "pairwise": lambda: pairwise_invariant(3),
        "breakdown": lambda: _print_breakdown(3, out),
    }[entry]
    with pytest.raises(DegreeZeroViolation) as excinfo:
        evaluate()
    trace = [f"  {label} = {m}" for label, m in real_chain_factors(target) + bump]
    assert str(excinfo.value) == (
        f"chain {target.describe()} has power -6, expected -7; trace:\n" + "\n".join(trace)
    )
    assert out.getvalue() == ""  # a breakdown raises before its first record


@pytest.mark.parametrize("entry", ["chain_factors", "configuration"])
def test_degenerate_node_names_chain_and_node(entry):
    # each step follows the one before, but the second node's weights, 1 and
    # -1, sum to zero: the constructor names that step and node before either
    # chain_factors or a configuration is given such a chain
    steps = (FixedMapKind(Contact.P0, 3, MonoK(2)), FixedMapKind(Contact.P2, 2, MonoK(1)))
    evaluate = {
        "chain_factors": lambda: chain_factors(Chain(steps)),
        "configuration": lambda: configuration_contribution(
            Configuration(3, enumerate_chains(3)[0], Chain(steps))
        ),
    }[entry]
    with pytest.raises(ValueError, match=(
        r"^step P2:d=2:MonoK\(k=1\):end at smooth\[1->2\]: node weights 1 and -1 sum to zero$"
    )):
        evaluate()


def test_side_sum_validates_side():
    with pytest.raises(ValueError):
        side_sum(2, "above")
