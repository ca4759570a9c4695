"""Closed-form localization factors for each piece of a fixed configuration.

Each fixed locus contributes the reciprocal equivariant Euler class of its
virtual normal bundle, which factors over the components of the broken
target:

* the base component (one closed form in the cover degree),
* each ruled bubble, whose map contributes a main factor plus an auxiliary
  factor for the attaching-divisor tangent at its outgoing node and for
  its finite reparametrization automorphisms,
* the end bubble, whose factor is self-contained,
* a smoothing factor ``1/(w_left + w_right)`` per source node.

A one-parameter family of fixed maps contributes a factor linear in the
class ``psi``, the first Chern class of the cotangent line at the outgoing
contact point; its tabulated main factor is the coefficient of ``psi``.
:func:`step_factors` integrates it on the spot over the one-dimensional
locus, where ``psi`` integrates to ``-1/(d-h)``, so no product of two
``psi`` classes ever arises.  End-bubble families carry the dual line (an
extra automorphism), so their coefficient is minus the prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .exact import AlphaMonomial, MONO_ONE
from .fixedpoints import Contact, Family, FixedMapKind, MonoH, MonoK

__all__ = [
    "FactorBundle",
    "DegenerateNodeError",
    "base_contribution",
    "ruled_contribution",
    "end_contribution",
    "psi_integral",
    "step_factors",
    "step_product",
    "node_smoothing",
]


class DegenerateNodeError(ValueError):
    """Smoothing weight zero: the node deformation is a fixed direction.

    Signals a configuration that sits on the boundary of a family locus and
    must have been excluded from the rigid enumeration.
    """


def _double_factorial(n: int) -> int:
    # n!! = n(n-2)(n-4)...; empty products (n <= 0) are 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _ceil_half(n: int) -> int:
    return (n + 1) // 2


@dataclass(frozen=True)
class FactorBundle:
    """A bubble map's tabulated factors.

    ``main`` is the normal-bundle factor; on ``Family`` rows it is the
    coefficient of psi, still to be integrated over the family (see
    :func:`step_factors`).  ``auxiliary`` is the divisor-tangent factor at
    the outgoing node (unit for end bubbles, which have none);
    ``automorphism_scale`` is the reciprocal order of the map's finite
    reparametrization group (end rows already include it).
    """

    main: AlphaMonomial
    auxiliary: AlphaMonomial = MONO_ONE
    automorphism_scale: Fraction = Fraction(1)


def base_contribution(d: int) -> AlphaMonomial:
    """Factor of the degree-d base component, automorphisms included:
    (-1)^(3d-1)/d * a^(6d-4) * (d! (2d)! / d^(3d))^2."""
    if d < 1:
        raise ValueError("base component degree must be >= 1")
    coeff = Fraction((-1) ** (3 * d - 1), d) * Fraction(
        math.factorial(d) * math.factorial(2 * d), d ** (3 * d)
    ) ** 2
    return AlphaMonomial(coeff, 6 * d - 4)


def _family_sum(d: int, h: int, k: int) -> Fraction:
    """Harmonic-type sum from the degree-one Chern part of the obstruction
    bundle over a map family; empty (zero) at h == 1."""
    total = Fraction(0)
    for i in range(h):
        total += Fraction(i, h - i) + Fraction(i, k - i) + Fraction(i, d - i)
    return total


def ruled_contribution(kind: FixedMapKind) -> FactorBundle:
    """Tabulated factors for a map to a ruled bubble (one point blown up).

    The expressions are total in (contact, shape, degree), so end-shaped
    kinds evaluate too; their actual contribution must come from
    :func:`end_contribution`, which the assembly enforces.
    """
    d, s, c = kind.degree, kind.shape, kind.contact

    if isinstance(s, Family):
        h, k = s.h, s.k
        e = 3 * h - 3 * d - 1
        # the family sign does not depend on the contact block
        sign = (-1) ** (h + k)
        coeff = (
            sign
            * Fraction(1, math.factorial(d - h) * math.factorial(d - k)) ** 2
            * Fraction(1, d - k) ** e
            * _family_sum(d, h, k)
        )
        return FactorBundle(
            AlphaMonomial(coeff, e),
            AlphaMonomial(Fraction(2), 2),
            Fraction(1, d - k),
        )

    if isinstance(s, MonoH):
        h = s.h
        e = 3 * h - 3 * d - 1
        if c is Contact.P2:
            coeff = Fraction(-1, d - h) * Fraction(
                1, math.factorial(d - h) * math.factorial(2 * d - 2 * h)
            ) * Fraction(1, d - h) ** e
        else:
            coeff = (
                (-1) ** (d + _ceil_half(d + h))
                * 2 ** (d - h)
                * Fraction(1, math.factorial(d - h) * _double_factorial(d - h)) ** 2
                * Fraction(2, d - h) ** e
            )
        return FactorBundle(
            AlphaMonomial(coeff, e),
            AlphaMonomial(Fraction(2), 2),
            Fraction(1, d - h),
        )

    k = s.k
    e = 3 * k - 3 * d - 1
    if c is Contact.P0:
        sign = -1
    elif c is Contact.P1:
        sign = (-1) ** (d + k)
    else:
        sign = (-1) ** (d - k)
    coeff = Fraction(sign, d - k) * Fraction(
        1, math.factorial(d - k) * math.factorial(2 * d - 2 * k)
    ) * Fraction(1, d - k) ** e
    aux = (
        AlphaMonomial(Fraction(2), 2)
        if c is Contact.P2
        else AlphaMonomial(Fraction(-1), 2)
    )
    return FactorBundle(AlphaMonomial(coeff, e), aux, Fraction(1, d - k))


def end_contribution(kind: FixedMapKind) -> FactorBundle:
    """Tabulated factors for a map to an end bubble (nothing blown up).

    End bubbles have no divisor-tangent column (no outgoing node), but the
    map's finite reparametrization automorphisms still contribute their
    reciprocal order: 1/(d-1) for the single-slot maps, 1/(d-k) for the
    one-parameter families.
    """
    if not kind.is_end_bubble:
        raise ValueError(f"{kind.describe()} is a ruled-bubble map")
    d, s, c = kind.degree, kind.shape, kind.contact
    e = 3 - 3 * d

    if isinstance(s, Family):
        k = s.k
        pref = (
            (-1) ** (k + 1)
            * Fraction(1, math.factorial(d - 1) * math.factorial(d - k)) ** 2
            * Fraction(1, d - k) ** e
        )
        # prefactor times the dual cotangent class, i.e. -psi
        return FactorBundle(AlphaMonomial(-pref, e), MONO_ONE, Fraction(1, d - k))

    # single-slot end maps keep a reparametrization group of order d - 1;
    # its reciprocal rides along like the ruled rows' column
    scale = Fraction(1, d - 1)

    if isinstance(s, MonoH):
        if c is Contact.P2:
            coeff = Fraction(-1, d - 1) * Fraction(
                1, math.factorial(d - 1) * math.factorial(2 * d - 2)
            ) * Fraction(1, d - 1) ** e
        else:
            coeff = (
                (-1) ** (d + _ceil_half(d + 1))
                * 2**d
                * Fraction(1, math.factorial(d - 1) * _double_factorial(d - 1)) ** 2
                * Fraction(2, d - 1) ** e
            )
        return FactorBundle(AlphaMonomial(coeff, e), MONO_ONE, scale)

    if c is Contact.P2:
        coeff = Fraction((-1) ** (d - 1), d - 1) * Fraction(
            1, math.factorial(d - 1) * math.factorial(2 * d - 2)
        ) * Fraction(1, d - 1) ** e
        return FactorBundle(AlphaMonomial(coeff, e), MONO_ONE, scale)

    # the degree-2 short end map (the only such row at P0/P1)
    return FactorBundle(AlphaMonomial(Fraction(-1, 2), -3), MONO_ONE, scale)


def psi_integral(d: int, h: int) -> Fraction:
    """Integral of psi over a one-dimensional family locus: -1/(d-h)."""
    if not 1 <= h <= d - 1:
        raise ValueError(f"psi integral needs 1 <= h <= d-1, got (d={d}, h={h})")
    return Fraction(-1, d - h)


@lru_cache(maxsize=None)
def step_factors(kind: FixedMapKind) -> Tuple[Tuple[str, AlphaMonomial], ...]:
    """Labeled multiplicative factors of one bubble step, in the 0-side frame.

    Labels: ``main`` for a rigid map factor, ``main_psi_coeff`` /
    ``psi_integral`` for a family's psi coefficient and the integral of psi
    over the family, then ``divisor_tangent`` and ``automorphisms`` when
    they are not 1.
    """
    bundle = end_contribution(kind) if kind.is_end_bubble else ruled_contribution(kind)
    factors: List[Tuple[str, AlphaMonomial]] = []
    if isinstance(kind.shape, Family):
        factors.append(("main_psi_coeff", bundle.main))
        factors.append(
            ("psi_integral", AlphaMonomial(psi_integral(kind.degree, kind.shape.h)))
        )
    else:
        factors.append(("main", bundle.main))
    if bundle.auxiliary != MONO_ONE:
        factors.append(("divisor_tangent", bundle.auxiliary))
    if bundle.automorphism_scale != 1:
        factors.append(("automorphisms", AlphaMonomial(bundle.automorphism_scale)))
    return tuple(factors)


@lru_cache(maxsize=None)
def step_product(kind: FixedMapKind) -> AlphaMonomial:
    """The product of :func:`step_factors`, one cached monomial per kind."""
    return math.prod((factor for _, factor in step_factors(kind)), start=MONO_ONE)


def node_smoothing(left_weight: Fraction, right_weight: Fraction) -> AlphaMonomial:
    """Reciprocal of the node-smoothing weight, 1/((w_l + w_r) a)."""
    total = left_weight + right_weight
    if total == 0:
        raise DegenerateNodeError(
            f"node weights {left_weight} and {right_weight} sum to zero"
        )
    return AlphaMonomial(Fraction(1) / total, -1)
