"""Closed-form localization factors for each piece of a fixed configuration.

Each fixed locus contributes the reciprocal equivariant Euler class of its
virtual normal bundle, which factors over the components of the broken
target: the base component (one closed form in the cover degree), each
bubble map, and a smoothing factor ``1/(w_left + w_right)`` per source node.

Every bubble map, ruled or end, follows one formula.  For a degree-d map
with slot exponent x (``k``, or ``h`` for ``MonoH``), q = d - x and
outgoing exponent out, the main factor is ``w * (1/q)^e * a^e`` with
e = 3*out - 3d - 1, the divisor-tangent factor at the outgoing node is
``2a^2`` (``-a^2`` for ``MonoK`` at P0/P1), and the finite
reparametrization automorphisms scale by 1/q.  The weight w has one of
three forms:

* ``Family(h, k)``: ``(-1)^(h+k) * sigma / ((d-h)! q!)^2``;
* ``MonoH`` at P0/P1: ``(-1)^(d + ceil((d+h)/2)) * 2^q * 2^e / (q! q!!)^2``;
* ``MonoH`` at P2 and every ``MonoK``: ``sign / (q q! (2q)!)``, with sign
  -1 for ``MonoH`` at P2 and ``MonoK`` at P0, else ``(-1)^(d+k)``.

An end map (out == 1) has no outgoing node, so its divisor-tangent factor
is 1, and two things change: e = 3 - 3d, and the ``MonoH`` P0/P1 weight
doubles (2^(q+1)).

A one-parameter family of fixed maps contributes a factor linear in the
class ``psi``, the first Chern class of the cotangent line at the outgoing
contact point; its main factor is the coefficient of ``psi``.  On ruled
rows sigma is the degree-one Chern part of the obstruction bundle,
h H_h + k (H_k - H_{k-h}) + d (H_d - H_{d-h}) - 3h over the harmonic
numbers H_n, summed in integers over degree d's table of them
(:func:`_family_sum`, a pair of ints).  End-bubble families carry the dual
line (an extra automorphism), so their sigma is -1.

:func:`_factors` writes all of it once, in integers, as one entry
``(label, n, r, e)`` per factor n/r a^e: ``main`` (on a family
``main_psi_coeff``, then ``psi_integral``, as psi integrates to -1/(d-h)
over the one-dimensional locus, so no product of two psi classes arises),
``divisor_tangent`` on a ruled map, and ``automorphisms`` unless q == 1.
It has two readers, neither deriving a factor: :func:`step_factors` makes
each entry a monomial, for the chain traces and the bundles (all but the
psi integral), and :func:`_step_coefficient` multiplies the integers into
one reduced pair of ints for the state sum, so all three agree by construction.
:func:`ruled_contribution` refuses an end kind, :func:`end_contribution` a
ruled one.  The product's power of ``a`` is fixed by the kind (3*out - 3d
+ 1 on a ruled map, 3 - 3d on an end map), so the state sum carries no
power.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .exact import AlphaMonomial, MONO_ONE
from .fixedpoints import Contact, Family, FixedMapKind, MonoH, MonoK, _integer

__all__ = [
    "FactorBundle",
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


class FactorBundle(Record):
    """A bubble map's tabulated factors.

    ``main`` is the normal-bundle factor; on ``Family`` rows it is the
    coefficient of psi, still to be integrated over the family (see
    :func:`step_factors`).  ``auxiliary`` is the divisor-tangent factor at
    the outgoing node (unit for end bubbles, which have none);
    ``automorphism_scale`` is the reciprocal order of the map's finite
    reparametrization group, 1/q on every row, end rows included.
    """

    def __init__(self, main: AlphaMonomial, auxiliary: AlphaMonomial, automorphism_scale: Fraction):
        fields = self.__dict__
        fields["main"], fields["auxiliary"], fields["automorphism_scale"] = (
            main, auxiliary, automorphism_scale
        )


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


def _factors(kind: FixedMapKind) -> list[tuple[str, int, int, int]]:
    """The listing of the module docstring, n/r not reduced and e < 0 on
    the main factor."""
    d, s, c, end = kind.degree, kind.shape, kind.contact, kind.is_end_bubble
    family = isinstance(s, Family)
    x = s.h if isinstance(s, MonoH) else s.k
    q = d - x
    e = 3 - 3 * d if end else 3 * kind.outgoing_exponent - 3 * d - 1
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


def _bundle(kind: FixedMapKind) -> FactorBundle:
    """The factors of :func:`step_factors` but a family's psi integral."""
    f = dict(step_factors(kind))
    return FactorBundle(
        f.get("main") or f["main_psi_coeff"],
        f.get("divisor_tangent", MONO_ONE),
        f.get("automorphisms", MONO_ONE).coeff,
    )


def ruled_contribution(kind: FixedMapKind) -> FactorBundle:
    """Tabulated factors for a map to a ruled bubble (one point blown up)."""
    if kind.is_end_bubble:
        raise ValueError(f"{kind.describe()} is an end-bubble map")
    return _bundle(kind)


def end_contribution(kind: FixedMapKind) -> FactorBundle:
    """Tabulated factors for a map to an end bubble (nothing blown up): no
    divisor-tangent factor, but still the automorphism scale 1/q."""
    if not kind.is_end_bubble:
        raise ValueError(f"{kind.describe()} is a ruled-bubble map")
    return _bundle(kind)


@lru_cache(maxsize=None)
def step_factors(kind: FixedMapKind) -> tuple[tuple[str, AlphaMonomial], ...]:
    """Labeled multiplicative factors of one bubble step, in the 0-side
    frame: the entries of :func:`_factors` as monomials, labelled ``main``
    (or ``main_psi_coeff``, ``psi_integral``), ``divisor_tangent``,
    ``automorphisms``."""
    return tuple((label, AlphaMonomial(Fraction(n, r), e)) for label, n, r, e in _factors(kind))


def _step_coefficient(kind: FixedMapKind) -> tuple[int, int]:
    """Coefficient of the product of :func:`step_factors`: the integers of
    :func:`_factors` multiplied into one reduced pair ``(num, den)``, den > 0."""
    num = den = 1
    for _, n, r, _ in _factors(kind):
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
