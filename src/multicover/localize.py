"""Assembly of per-configuration contributions and the final invariants.

A configuration's contribution is the product of the base factor, every
chain step's factors and a smoothing factor per node, with the infinity
side evaluated in the 0-side frame and then flipped a -> -a.  Every
configuration multiplies out to a degree-zero monomial, and the invariant
is their exact sum.  Because the factors are side-local, that sum is
base * S * flip(S) with S the one-sided sum; because a step's factors
depend only on its row and the incoming node weight, S is a sum over the
(contact, degree, weight) states of the chain automaton, kept in
:data:`_TABLE`.  That state sum, in integers, is the one evaluation path;
README's "How it works", step 3, walks through it.

The state sum carries no power of ``a``: a row's power is fixed by its
shape and degree, so every degree-m state's sum has power 2 - 3m.  The one
power checked at run time is a traced chain's, in :func:`_chain_record`;
chains are traced only for ``--breakdown``, the per-configuration API and
the test oracles.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._record import Record
from .contributions import _step_coefficient, base_contribution, node_smoothing, step_factors
from .exact import AlphaMonomial, alpha_flip
from .fixedpoints import (
    Chain,
    Configuration,
    Contact,
    _cover_degree,
    _step_candidates,
    base_tangent_weight,
    source_tangent_weight,
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
    """A chain whose factors' product has a power of the equivariant
    parameter other than 2 - 3d, so its configurations are not numbers."""


class ConfigurationReport(Record):
    """A configuration with its labeled factor trace.

    The traced factors multiply exactly to ``total`` (family steps appear
    as their psi coefficient times the psi integral), and ``total`` always
    has power zero.
    """

    def __init__(self, configuration: Configuration, per_factor_trace: tuple, total: AlphaMonomial):
        fields = self.__dict__
        fields["configuration"], fields["per_factor_trace"], fields["total"] = (
            configuration, per_factor_trace, total
        )


def chain_factors(chain: Chain) -> tuple[tuple[str, AlphaMonomial], ...]:
    """Ordered multiplicative factors of one chain, in the 0-side frame.

    Labels: ``smooth[a->b]`` for node smoothings and ``step<i>.<label>``
    for the labels of :func:`step_factors`.  No node's two weights sum to
    zero: :class:`fixedpoints.Chain` refuses such a chain when it is built.
    """
    factors: list[tuple[str, AlphaMonomial]] = []
    w = base_tangent_weight(chain.degree)
    for i, step in enumerate(chain.steps, 1):
        w_in = source_tangent_weight(step)
        factors.append((f"smooth[{i - 1 or 'base'}->{i}]", node_smoothing(w, w_in)))
        factors.extend((f"step{i}.{label}", m) for label, m in step_factors(step))
        w = -w_in
    return tuple(factors)


# The state table, kept across degrees, all in ints.  Per bubble (contact, m): ``(rows, L, sums)``,
# a row ``(a, b, n * b)`` per _step_candidates row, w_in = (a, b), c * tail = n/L (c its
# _step_coefficient, tail 1 or its next state's sum), and ``sums`` each asked state's sum as a
# reduced pair (numerator, denominator > 0), keyed by its weight pair w = (p, q).
_TABLE: dict[tuple[Contact, int], tuple] = {}


def _fill_table(d: int) -> None:
    """Build the missing records of every bubble below degree d, then of the
    root (P0, d), in increasing m: each row's tail state is in a lower bubble.
    A row's c * tail is a pair of ints, cross-reduced as ``Fraction`` multiplies."""
    bubbles = [(c, m) for m in range(2, d) for c in Contact] + [(Contact.P0, d)]
    for contact, m in [bubble for bubble in bubbles if bubble not in _TABLE]:
        products = []
        for shape, w_in, nxt in _step_candidates(contact, m):
            n, r = _step_coefficient(contact, m, shape)
            if nxt is not None:
                tn, tr = _table_sum(*nxt)
                g, h = math.gcd(n, tr), math.gcd(tn, r)
                n, r = (n // g) * (tn // h), (r // h) * (tr // g)
            products.append((*w_in, n, r))
        L = math.lcm(*(r for _, _, _, r in products))
        rows = tuple((a, b, n * (L // r) * b) for a, b, n, r in products)
        _TABLE[contact, m] = (rows, L, {})


def _table_sum(contact: Contact, m: int, w: tuple[int, int]) -> tuple[int, int]:
    """Sum from the state ``(contact, m, w)``, w = p/q as the reduced pair
    (p, q), kept on first ask as a reduced pair of ints: row by row,
    c * tail / (w + w_in) = n*b*q / (L*s) with s = p*b + a*q, over M = lcm
    of the s, reduced once by one gcd; s == 0 (zero smoothing weight) drops a row."""
    rows, L, sums = _TABLE[contact, m]
    if w not in sums:
        p, q = w
        terms = [(nb, s) for a, b, nb in rows if (s := p * b + a * q)]
        M = math.lcm(*(s for _, s in terms))
        n, r = q * sum(nb * (M // s) for nb, s in terms), L * M
        g = math.gcd(n, r)
        sums[w] = n // g, r // g
    return sums[w]


def _chain_record(chain: Chain, base: AlphaMonomial) -> tuple:
    """``((zero_trace, zero_coeff), (infinity_trace, infinity_coeff))`` of
    one chain of degree d: iterators over the labelled :func:`chain_factors`
    prefixed ``zero.`` and led by ``base``, the degree-d base factor that a
    caller builds once for all its chains, and prefixed
    ``infinity.`` and flipped a -> -a, with the coefficients of their products.
    The factors' powers of ``a`` sum to that of their product P, checked first:
    2 - 3d, so base * P has power 3d - 2 and flip(P) keeps 2 - 3d."""
    factors = chain_factors(chain)
    power = sum(m.power for _, m in factors)
    expected = 2 - 3 * chain.degree
    if power != expected:
        lines = "\n".join(f"  {label} = {value}" for label, value in factors)
        raise DegreeZeroViolation(
            f"chain {chain.describe()} has power {power}, "
            f"expected {expected}; trace:\n{lines}"
        )
    product = AlphaMonomial(math.prod(m.coeff for _, m in factors), power)
    zero = itertools.chain((("base", base),), ((f"zero.{label}", m) for label, m in factors))
    infinity = ((f"infinity.{label}", alpha_flip(m)) for label, m in factors)
    return (zero, base.coeff * product.coeff), (infinity, alpha_flip(product).coeff)


def configuration_contribution(cfg: Configuration) -> ConfigurationReport:
    """Labeled factor trace and degree-zero total of one configuration."""
    base = base_contribution(cfg.cover_degree)
    (zero_trace, zero_coeff), _ = _chain_record(cfg.chain_zero, base)
    _, (infinity_trace, infinity_coeff) = _chain_record(cfg.chain_infinity, base)
    return ConfigurationReport(
        cfg, (*zero_trace, *infinity_trace), AlphaMonomial(zero_coeff * infinity_coeff)
    )


def side_sum(d: int, side: str) -> AlphaMonomial:
    """Sum of per-chain factor products over one side (base factor
    excluded); the infinity side is the a -> -a flip of the zero side."""
    if side not in ("zero", "infinity"):
        raise ValueError(f"side must be 'zero' or 'infinity', got {side!r}")
    d = _cover_degree(d)
    _fill_table(d)
    root = _table_sum(Contact.P0, d, base_tangent_weight(d).as_integer_ratio())
    total = AlphaMonomial(Fraction(*root), 2 - 3 * d)
    return alpha_flip(total) if side == "infinity" else total


def multiple_cover_invariant(d: int) -> Fraction:
    """The exact degree-d invariant, base * S * flip(S) from the one-sided
    state sum S of :func:`side_sum`."""
    d = _cover_degree(d)
    s0 = side_sum(d, "zero")
    return (base_contribution(d) * s0 * alpha_flip(s0)).coeff
