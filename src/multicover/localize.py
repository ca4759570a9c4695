"""Assembly of per-configuration contributions and the final invariants.

A configuration's contribution is the product of the base factor, every
chain step's factors, and a smoothing factor per node, with the whole
infinity side evaluated in the 0-side frame and then flipped a -> -a.
A step's factors come from :func:`contributions.step_factors`, which
integrates a family step's psi coefficient on the spot, so the running
product stays a single monomial and any number of family steps per chain
is handled.

Every configuration multiplies out to a degree-zero monomial -- a pure
number -- and the invariant is their exact sum.  Because the factors are
side-local, that sum equals base * S * flip(S) with S the one-sided sum,
and because a step's factors depend only on its kind and the incoming
node weight, S is a memoized sum over the (contact, degree, weight) states
of the chain automaton, walked by :func:`fixedpoints.successors` with one
cached :func:`contributions.step_product` per kind: the default path,
polynomial in d.  Chains are enumerated one by one only for ``--breakdown``
and for the configuration-by-configuration cross-check.  Each chain is
traced and multiplied once per side, from :func:`chain_factors` and not
from ``step_product``, so the cross-check shares no product with the state
sum; a configuration then costs two products, base times the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .contributions import base_contribution, node_smoothing, step_factors, step_product
from .exact import MONO_ONE, MONO_ZERO, AlphaMonomial, alpha_flip
from .fixedpoints import (
    Chain,
    Configuration,
    Contact,
    NodeEnd,
    UnsupportedDegreeError,
    base_tangent_weight,
    enumerate_configurations,
    source_tangent_weight,
    successors,
)

__all__ = [
    "ConfigurationReport",
    "DegreeZeroViolation",
    "chain_factors",
    "configuration_contribution",
    "side_sum",
    "multiple_cover_invariant",
]


class DegreeZeroViolation(ArithmeticError):
    """A configuration's total came out with a nonzero power of the
    equivariant parameter."""


@dataclass(frozen=True)
class ConfigurationReport:
    """A configuration with its labeled factor trace.

    The traced factors multiply exactly to ``total`` (family steps appear
    as their psi coefficient times the psi integral), and ``total`` always
    has power zero.
    """

    configuration: Configuration
    per_factor_trace: Tuple[Tuple[str, AlphaMonomial], ...]
    total: AlphaMonomial


def chain_factors(chain: Chain) -> Tuple[Tuple[str, AlphaMonomial], ...]:
    """Ordered multiplicative factors of one chain, in the 0-side frame.

    Labels: ``smooth[a->b]`` for node smoothings and ``step<i>.<label>``
    for the labels of :func:`step_factors`.
    """
    factors: List[Tuple[str, AlphaMonomial]] = []
    w = base_tangent_weight(chain.degree)
    for i, step in enumerate(chain.steps, 1):
        w_in = source_tangent_weight(step, NodeEnd.NODE_IN)
        factors.append((f"smooth[{i - 1 or 'base'}->{i}]", node_smoothing(w, w_in)))
        factors.extend((f"step{i}.{label}", m) for label, m in step_factors(step))
        w = -w_in
    return tuple(factors)


@lru_cache(maxsize=None)
def _state_sum(contact: Contact, m: int, w: Fraction) -> AlphaMonomial:
    """Sum over the chain tails from the state ``(contact, m, w)``: each row
    :func:`successors` keeps, times the sum from its next state."""
    total = MONO_ZERO
    for kind, w_in, nxt in successors(contact, m, w):
        tail = MONO_ONE if nxt is None else _state_sum(*nxt)
        total = total + node_smoothing(w, w_in) * step_product(kind) * tail
    return total


@lru_cache(maxsize=None)
def _side_record(chain: Chain, side: str) -> tuple:
    """``(trace, product)`` of one chain on one side: the labelled
    :func:`chain_factors` prefixed ``zero.``/``infinity.`` (the infinity
    side flipped a -> -a), and their product."""
    trace = tuple(
        (f"{side}.{label}", alpha_flip(m) if side == "infinity" else m)
        for label, m in chain_factors(chain)
    )
    return trace, math.prod((m for _, m in trace), start=MONO_ONE)


def configuration_contribution(cfg: Configuration) -> ConfigurationReport:
    """Labeled factor trace and degree-zero total of one configuration."""
    zero_trace, zero_product = _side_record(cfg.chain_zero, "zero")
    infinity_trace, infinity_product = _side_record(cfg.chain_infinity, "infinity")
    base = base_contribution(cfg.cover_degree)
    trace = (("base", base),) + zero_trace + infinity_trace
    total = base * zero_product * infinity_product
    if total.power != 0:
        lines = "\n".join(f"  {label} = {value}" for label, value in trace)
        raise DegreeZeroViolation(
            f"configuration {cfg.describe()} has total {total}; trace:\n{lines}"
        )
    return ConfigurationReport(cfg, trace, total)


def side_sum(d: int, side: str) -> AlphaMonomial:
    """Sum of per-chain factor products over one side (base factor
    excluded); the infinity side is the a -> -a flip of the zero side."""
    if side not in ("zero", "infinity"):
        raise ValueError(f"side must be 'zero' or 'infinity', got {side!r}")
    if d < 2:
        raise UnsupportedDegreeError(f"degree must be at least 2, got {d}")
    total = _state_sum(Contact.P0, d, base_tangent_weight(d))
    return alpha_flip(total) if side == "infinity" else total


def multiple_cover_invariant(d: int, *, method: str = "factored") -> Fraction:
    """The exact degree-d invariant.

    ``method="factored"`` evaluates base * S * flip(S) from the one-sided
    state sum; ``method="pairwise"`` sums configuration_contribution over
    the full configuration list -- identical by exactness, kept as the
    independent cross-check.
    """
    if method == "factored":
        s0 = side_sum(d, "zero")
        total = base_contribution(d) * s0 * alpha_flip(s0)
        if total.power != 0:
            raise DegreeZeroViolation(f"degree-{d} invariant has power {total.power}")
        return total.coeff
    if method != "pairwise":
        raise ValueError(f"unknown method {method!r}")
    configs = enumerate_configurations(d)
    return sum(configuration_contribution(c).total.coeff for c in configs)
