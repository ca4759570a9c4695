"""Closed-form localization factors for each piece of a fixed configuration.

Each fixed locus contributes the reciprocal equivariant Euler class of its
virtual normal bundle, which factors over the components of the broken
target: the base component, each bubble map, and a smoothing factor
``1/(w_left + w_right)`` per source node.  README's "How it works" walks
through the formulas; what the code does not show:

* :func:`_factors` is the one source of a bubble map's factors.
  :func:`step_factors` (for the chain traces) and :func:`_step_coefficient`
  (for the state sum, which builds no kind) only read its integers, so the
  two agree by construction.
* On a ruled family, sigma is the degree-one Chern part of the obstruction
  bundle over the family; an end family carries the dual line (an extra
  automorphism), so its sigma is -1.  psi, the first Chern class of the
  cotangent line at the outgoing contact point, integrates to -1/(d-h)
  over the one-dimensional locus, so no product of two psi classes arises.
* The product's power of ``a`` is fixed by the kind (3*out - 3d + 1 on a
  ruled map, 3 - 3d on an end map), so the state sum carries no power.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import AlphaMonomial
from .fixedpoints import (
    Contact,
    Family,
    FixedMapKind,
    MonoH,
    MonoK,
    Shape,
    _integer,
    _outgoing_exponent,
)

__all__ = [
    "DegenerateNodeError",
    "base_contribution",
    "ruled_contribution",
    "end_contribution",
    "psi_integral",
    "step_factors",
    "node_smoothing",
]


class DegenerateNodeError(ValueError):
    """Smoothing weight zero: the node deformation is a fixed direction.

    Signals a configuration that sits on the boundary of a family locus and
    must have been excluded from the rigid enumeration.
    """


def base_contribution(d: int) -> AlphaMonomial:
    """Factor of the degree-d base component, automorphisms included:
    (-1)^(3d-1)/d * a^(6d-4) * (d! (2d)! / d^(3d))^2."""
    d = _integer("degree", d)
    if d < 1:
        raise ValueError(f"base component degree must be >= 1, got {d}")
    coeff = Fraction((-1) ** (3 * d - 1), d) * Fraction(
        math.factorial(d) * math.factorial(2 * d), d ** (3 * d)
    ) ** 2
    return AlphaMonomial(coeff, 6 * d - 4)


@lru_cache(maxsize=None)
def _harmonic(d: int) -> tuple[int, tuple[int, ...]]:
    """``(L, (L H_0, ..., L H_d))`` in integers, with L = lcm(1..d) and the
    harmonic numbers H_n = 1 + 1/2 + ... + 1/n, H_0 = 0: one table per degree."""
    L, t = math.lcm(*range(1, d + 1)), [0]
    for i in range(1, d + 1):
        t.append(t[-1] + L // i)
    return L, tuple(t)


def _family_sum(d: int, h: int, k: int) -> tuple[int, int]:
    """sigma = sum_{i<h} i/(h-i) + i/(k-i) + i/(d-i), the degree-one Chern
    part of the obstruction bundle over a map family.  As i/(n-i) =
    n/(n-i) - 1, it is h H_h + k (H_k - H_{k-h}) + d (H_d - H_{d-h}) - 3h,
    which is 0 at h == 1: one integer sum over degree d's table L H_n, as
    the pair (sum, L), not reduced."""
    L, H = _harmonic(d)
    return h * H[h] + k * (H[k] - H[k - h]) + d * (H[d] - H[d - h]) - 3 * h * L, L


def _psi(d: int, h: int) -> tuple[int, int]:
    """-1/(d-h), the integral of psi over a family locus, as a reduced pair."""
    return -1, d - h


def psi_integral(d: int, h: int) -> Fraction:
    """Integral of psi over a one-dimensional family locus: :func:`_psi`."""
    d, h = _integer("degree", d), _integer("h", h)
    if not 1 <= h <= d - 1:
        raise ValueError(f"psi integral needs 1 <= h <= d-1, got (d={d}, h={h})")
    return Fraction(*_psi(d, h))


def _factors(c: Contact, d: int, s: Shape) -> list[tuple[str, int, int, int]]:
    """One entry ``(label, n, r, e)`` per factor n/r a^e of the map of shape ``s``,
    degree d, met at contact c, by step 2 of README's "How it works": ``main``
    (a family's ``main_psi_coeff``, then ``psi_integral``), ``divisor_tangent``
    on a ruled map and ``automorphisms`` unless q == 1; n/r is not reduced."""
    out = _outgoing_exponent(s)
    end, family = out == 1, isinstance(s, Family)
    x = s.h if isinstance(s, MonoH) else s.k
    q = d - x
    e = 3 - 3 * d if end else 3 * out - 3 * d - 1
    if family:
        sigma, L = (-1, 1) if end else _family_sum(d, s.h, s.k)
        n = (-1) ** (s.h + s.k) * sigma
        r = L * (math.factorial(d - s.h) * math.factorial(q)) ** 2
    elif isinstance(s, MonoH) and c is not Contact.P2:
        n = (-1) ** (d + (d + x + 1) // 2) * 2 ** (q + end)
        r = (math.factorial(q) * math.prod(range(q, 0, -2))) ** 2 << -e  # 2^e
    else:
        n = -1 if isinstance(s, MonoH) or c is Contact.P0 else (-1) ** (d + x)
        r = q * math.factorial(q) * math.factorial(2 * q)
    factors = [("main_psi_coeff" if family else "main", n * q**-e, r, e)]
    if family:
        factors.append(("psi_integral", *_psi(d, s.h), 0))
    if not end:
        t = -1 if isinstance(s, MonoK) and c is not Contact.P2 else 2
        factors.append(("divisor_tangent", t, 1, 2))
    if q != 1:
        factors.append(("automorphisms", 1, q, 0))
    return factors


@lru_cache(maxsize=None)
def step_factors(kind: FixedMapKind) -> tuple[tuple[str, AlphaMonomial], ...]:
    """Labelled multiplicative factors of one bubble step, in the 0-side
    frame: the entries of :func:`_factors` as monomials."""
    factors = _factors(kind.contact, kind.degree, kind.shape)
    return tuple((label, AlphaMonomial(Fraction(n, r), e)) for label, n, r, e in factors)


def ruled_contribution(kind: FixedMapKind) -> tuple[tuple[str, AlphaMonomial], ...]:
    """:func:`step_factors` of a map to a ruled bubble; an end kind raises."""
    if kind.is_end_bubble:
        raise ValueError(f"{kind.describe()} is an end-bubble map")
    return step_factors(kind)


def end_contribution(kind: FixedMapKind) -> tuple[tuple[str, AlphaMonomial], ...]:
    """:func:`step_factors` of a map to an end bubble; a ruled kind raises."""
    if not kind.is_end_bubble:
        raise ValueError(f"{kind.describe()} is a ruled-bubble map")
    return step_factors(kind)


def _step_coefficient(contact: Contact, degree: int, shape: Shape) -> tuple[int, int]:
    """Coefficient of the product of :func:`step_factors` for the kind
    (contact, degree, shape), read from the row without building it: the
    integers of :func:`_factors` multiplied into one reduced pair ``(num, den)``,
    den > 0."""
    num = den = 1
    for _, n, r, _ in _factors(contact, degree, shape):
        num, den = num * n, den * r
    g = math.gcd(num, den)
    return num // g, den // g


def node_smoothing(left_weight: Fraction, right_weight: Fraction) -> AlphaMonomial:
    """Reciprocal of the node-smoothing weight, 1/((w_l + w_r) a)."""
    total = left_weight + right_weight
    if total == 0:
        raise DegenerateNodeError(
            f"node weights {left_weight} and {right_weight} sum to zero"
        )
    return AlphaMonomial(Fraction(1) / total, -1)
