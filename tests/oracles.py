"""The test-side oracles, and the helpers that CI calls past tier-1.

Each oracle reaches a value of the library by a second route:

* :func:`pairwise_invariant`, the invariant chain by chain, with no state
  table;
* :func:`monomial_state_sum`, a one-sided state sum in monomial
  arithmetic;
* :func:`walk_rows`, the chains by a walk written here;
* :func:`family_sum_loop`, a family's sigma term by term.

What each still shares with the library is the table ``SHARES`` in
``tests/test_oracles.py``, which a test checks against the code below.
CI imports from this module with ``PYTHONPATH=src:tests``.
"""

import functools
import gc
import hashlib
import math
import random  # imported by exact._ecm; loaded here, before any tracing
import tracemalloc
from fractions import Fraction

from multicover import exact, localize
from multicover.contributions import (
    _step_coefficient,
    base_contribution,
    node_smoothing,
    step_factors,
)
from multicover.exact import MONO_ONE, AlphaMonomial
from multicover.fixedpoints import (
    Chain,
    Contact,
    Family,
    FixedMapKind,
    MonoH,
    MonoK,
    _step_candidates,
    base_tangent_weight,
    enumerate_chains,
    source_tangent_weight,
    v4_weights,
)
from multicover.localize import multiple_cover_invariant, side_sum

F = Fraction


def mono(c, p=0):
    return AlphaMonomial(F(*c) if isinstance(c, tuple) else F(c), p)


def product(factors):
    out = MONO_ONE
    for f in factors:
        out = out * f
    return out


# -- the oracles ------------------------------------------------------------------

def pairwise_invariant(d):
    """The degree-d invariant chain by chain: the sum of the chains' checked
    zero-side coefficients times the sum of their infinity-side ones, equal
    to the N^2 configurations' sum by exactness.  It keeps two coefficients
    per chain and nothing once it returns; the base factor is built once, after
    enumerate_chains has refused a degree below 2."""
    chains = enumerate_chains(d)
    base = base_contribution(d)
    pairs = [(z, i) for (_, z), (_, i) in (localize._chain_record(c, base) for c in chains)]
    return sum(z for z, _ in pairs) * sum(i for _, i in pairs)


@functools.lru_cache(maxsize=None)
def monomial_state_sum(contact, m, w):
    """The one-sided sum from state ``(contact, m, w)`` by a second path: the
    same rows of :func:`_step_candidates`, less those with ``w + w_in == 0``,
    but each term is the monomial ``node_smoothing * step_factors product *
    tail``, its power checked against 2 - 3m before its coefficient is summed.
    ``w`` is a ``Fraction``; the rows' weight pairs become ``Fraction``s here."""
    total = F(0)
    for kind, w_in, nxt in _step_candidates(contact, m):
        if w + F(*w_in) == 0:
            continue
        term = node_smoothing(w, F(*w_in)) * product(f for _, f in step_factors(kind))
        if nxt is not None:
            term = term * monomial_state_sum(*nxt[:2], F(*nxt[2]))
        assert term.coeff == 0 or term.power == 2 - 3 * m, (kind.describe(), term)
        total += term.coeff
    return AlphaMonomial(total, 2 - 3 * m)


def walk_rows(d, prune):
    """Chains by a walk over :func:`_step_candidates` written here: each state
    ``(contact, m, w)`` keeps a row iff ``w + w_in != 0``, or every row
    without ``prune``, and the kept rows leave first in, first out.  Without
    ``prune`` it returns each chain's steps, as :class:`Chain` refuses one
    that crosses a node whose weights cancel."""
    out = []
    pending = [((), Contact.P0, d, base_tangent_weight(d))]
    for prefix, contact, m, w in pending:
        for fk, w_in, nxt in _step_candidates(contact, m):
            if prune and w + F(*w_in) == 0:
                continue
            if nxt is None:
                out.append(Chain(prefix + (fk,)) if prune else prefix + (fk,))
            else:
                pending.append((prefix + (fk,), *nxt[:2], F(*nxt[2])))
    return out


def family_sum_loop(d, h, k):
    """sigma term by term: sum_{i<h} i/(h-i) + i/(k-i) + i/(d-i)."""
    total = F(0)
    for i in range(h):
        total += F(i, h - i) + F(i, k - i) + F(i, d - i)
    return total


def all_kinds(max_degree):
    """Every fixed-map kind of degree 2..max_degree, built shape by shape."""
    out = []
    for d in range(2, max_degree + 1):
        for contact in Contact:
            for h in range(1, d):
                if contact is Contact.P2:
                    out.append(FixedMapKind(contact, d, MonoH(h)))
                elif (d + h) % 2 == 0:
                    out.append(FixedMapKind(contact, d, Family(h, (d + h) // 2)))
                else:
                    out.append(FixedMapKind(contact, d, MonoH(h)))
            for k in range(1, d):
                if k == 1 and contact is not Contact.P2 and d != 2:
                    continue
                out.append(FixedMapKind(contact, d, MonoK(k)))
    return out


# -- checks that CI runs past tier-1's range --------------------------------------

def assert_oracle_agrees(degrees):
    """side_sum against :func:`monomial_state_sum` at each degree; tier-1
    takes d = 10..20, CI d = 21..60."""
    for d in degrees:
        oracle = monomial_state_sum(Contact.P0, d, base_tangent_weight(d))
        assert side_sum(d, "zero") == oracle, d


def assert_step_coefficients_agree(degrees):
    """:func:`_step_coefficient`, a reduced pair (num, den) with den > 0,
    against the coefficient of the :func:`step_factors` product, whose power
    must be 3*out - 3m + 1 on a
    ruled row and 3 - 3m on an end row (the power the state sum assumes),
    and the labels of :func:`step_factors`: ``main`` (a family's
    ``main_psi_coeff`` and ``psi_integral``), ``divisor_tangent`` on a ruled
    row and ``automorphisms`` unless q == 1, for every admitted kind of each
    degree m; tier-1 takes m = 2..39, CI m = 40..90."""
    for m in degrees:
        for contact in Contact:
            for kind, _, _ in _step_candidates(contact, m):
                factors = step_factors(kind)
                expected = product(f for _, f in factors)
                power = 3 - 3 * m if kind.is_end_bubble else 3 * kind.outgoing_exponent - 3 * m + 1
                num, den = _step_coefficient(kind)
                assert den > 0 and math.gcd(num, den) == 1, (kind, num, den)
                assert (F(num, den), expected.power) == (expected.coeff, power), kind
                s = kind.shape
                q = m - (s.h if isinstance(s, MonoH) else s.k)
                labels = ["main_psi_coeff", "psi_integral"] if isinstance(s, Family) else ["main"]
                labels += ["divisor_tangent"] * (not kind.is_end_bubble) + ["automorphisms"] * (q != 1)
                assert [label for label, _ in factors] == labels, kind


def assert_weights_agree(degrees):
    """For every row of :func:`_step_candidates` of each degree m, its
    ``w_in``, a reduced pair (a, b) with b > 0 equal to
    :func:`source_tangent_weight`, and the outgoing node weight -a/b
    against the weight table of :func:`v4_weights` twice: as w0 / m, and as
    (w0 - w_slot) / (m - out) with w_slot the ``MonoK`` slot's weight w2,
    else w1; tier-1 takes m = 2..39, CI m = 40..90."""
    for m in degrees:
        for contact in Contact:
            for kind, (a, b), _ in _step_candidates(contact, m):
                assert b > 0 and math.gcd(a, b) == 1, (kind, a, b)
                assert F(a, b) == source_tangent_weight(kind), kind
                out = F(-a, b)
                w = v4_weights(kind)
                w_slot = w[2] if isinstance(kind.shape, MonoK) else w[1]
                assert out == w[0] / m, kind
                assert out == (w[0] - w_slot) / (m - kind.outgoing_exponent), kind


def assert_stage2_masks(bounds):
    """Each giant step's mask of ``exact._stage2_masks(b1)`` against one
    plain sieve: slot j // 2 of giant step m is 1 exactly when m*D + j or
    m*D - j is prime, for odd j < D/2; tier-1 takes B1 = 2000, 11000 and
    50000, CI 250000."""
    d = exact._ECM_D
    for b1 in bounds:
        prime = exact._sieve(100 * b1 + 2 * d)
        giants = range(max(b1 // d, 1), 100 * b1 // d + 2)
        m0, masks = exact._stage2_masks(b1)
        assert (m0, len(masks)) == (giants[0], len(giants)), b1
        for m, mask in zip(giants, masks):
            assert mask == bytes(prime[m * d + j] | prime[m * d - j] for j in range(1, d // 2, 2)), (b1, m)


def assert_factorize_frees(bounds):
    """One ``exact._ecm`` curve at each B1 of ``bounds`` alone, on d = 11's
    numerator root: once the call returns, tracemalloc finds under 64 KB
    still held, so the level's tables (its masks alone are 0.29 MB at
    B1 = 11000, 6.6 MB at 250000) do not outlive the call; tier-1 takes
    B1 = 11000, CI 250000."""
    root, ecm_bounds = 438938983141369 * 180676454678820675709, exact._ecm_bounds
    for b1 in bounds:
        exact._ecm_bounds = lambda: iter([b1])
        tracemalloc.start()
        try:
            exact._ecm(root)
            gc.collect()  # empties the free lists, whose blocks tracemalloc counts
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            exact._ecm_bounds = ecm_bounds
        assert held < 64 * 1024, (b1, held)


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
    :data:`STATE_COUNTS`; tier-1 takes d = 10, 20 and 40, CI d = 60."""
    cold_values([d])
    assert sum(len(sums) for _, _, sums in localize._TABLE.values()) == STATE_COUNTS[d], d


def assert_value_structure(degrees):
    """For each d, N_d's denominator has no prime factor above 3d and
    -d*N_d is the square of a rational; tier-1 takes d = 2..40, CI the rest
    of the plain cap."""
    for d in degrees:
        value = multiple_cover_invariant(d)
        assert _is_smooth(value.denominator, 3 * d), d
        square = -d * value
        assert square > 0, d
        for n in (square.numerator, square.denominator):
            assert math.isqrt(n) ** 2 == n, d


def assert_state_denominators(d):
    """After a cold degree d, every state sum in the table, a reduced pair
    (numerator, denominator), has a denominator with no prime factor above
    3d, as N_d's has: a row factor with a stray large prime fails at the
    first state it enters; tier-1 takes d = 40, CI d = 60."""
    cold_values([d])
    for (contact, m), (_, _, sums) in localize._TABLE.items():
        for w, (_, denominator) in sums.items():
            assert _is_smooth(denominator, 3 * d), (contact, m, w)


def _is_smooth(n, bound):
    """Whether no prime factor of the positive integer n exceeds ``bound``."""
    for p in range(2, bound + 1):
        while n % p == 0:
            n //= p
    return n == 1


# sha256 over the describe() lines of enumerate_chains(d), one per chain
CHAIN_DIGESTS = {
    10: "16b7168c49ba7f375695f4907ad1b027722fb2bfcc82f8455a74d3b251e867a1",
    11: "f480bbea37e7c8779c9e559379d3637945c6ddd131c5cac3595a5a8035371e15",
    12: "a0412dd30e79231c6beae20ebd8ab9eab931b60a568531e9c791491c2a61e716",
}


def assert_chain_digests(degrees):
    """The walk's chains past the shipped table, line by line, against
    :data:`CHAIN_DIGESTS`; tier-1 takes d = 10 and 11, CI d = 12."""
    for d in degrees:
        lines = "".join(c.describe() + "\n" for c in enumerate_chains(d))
        assert hashlib.sha256(lines.encode()).hexdigest() == CHAIN_DIGESTS[d], d
