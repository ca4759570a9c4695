"""Classification and enumeration of torus-fixed map configurations.

A fixed configuration over the local curve consists of one base component,
fully ramified over the two torus-fixed points, plus a chain of bubble
components over each of 0 and infinity.  Every bubble carries exactly one
source component, mapped by a degree-m monomial map that meets the
attaching divisor with full contact m at one of three coordinate points.

Inside each bubble the torus acts (after a dilation normalization) with a
rigid weight pattern on the four homogeneous coordinates: one coordinate
one unit above, one a unit below, and one level with the attaching
coordinate.  The contact point's role in that pattern is what the labels
``P0``, ``P1``, ``P2`` record, and it determines which fixed-map shapes can
occur and where the chain goes next:

* ``Family(h, k)``: both off-contact slots filled, ``m + h == 2k`` -- a
  one-parameter family of fixed maps (needs the contact at a ``P0``/``P1``
  coordinate; no family exists at ``P2``).
* ``MonoH(h)``: only the unit-below slot filled.
* ``MonoK(k)``: only the level slot filled.

A map ramified at its far point (outgoing exponent >= 2) forces another
blow-up, so the chain continues with a bubble of that degree; exponent 1
ends the chain.  Two pruning rules keep the list duplicate-free:

* at ``P0``/``P1`` a ``MonoH`` with ``h == m (mod 2)`` is a limit of the
  family with ``k == (m+h)/2`` and is never emitted separately;
* a row whose attaching node has zero smoothing weight is the broken limit
  of a family locus (the node deformation is the family direction), whose
  integral counts it; only :func:`successors`, the one walker, drops it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

__all__ = [
    "Contact",
    "Family",
    "MonoH",
    "MonoK",
    "NodeEnd",
    "FixedMapKind",
    "Chain",
    "Configuration",
    "UnsupportedDegreeError",
    "InvalidKindError",
    "Shape",
    "make_kind",
    "v4_weights",
    "source_tangent_weight",
    "base_tangent_weight",
    "transition",
    "successors",
    "enumerate_chains",
    "enumerate_configurations",
]


class UnsupportedDegreeError(ValueError):
    """Cover degree outside the supported range (d >= 2)."""


class InvalidKindError(ValueError):
    """A (contact, shape, degree) combination that is not a fixed-map row."""


class Contact(enum.Enum):
    """Role of the contact coordinate in the bubble's weight pattern."""

    P0 = 0  # [1;0;0;0]-type: contact at the unit-above coordinate
    P1 = 1  # [0;1;0;0]-type: contact at the unit-below coordinate
    P2 = 2  # [0;0;1;0]-type: contact at the level coordinate


@dataclass(frozen=True)
class Family:
    h: int
    k: int


@dataclass(frozen=True)
class MonoH:
    h: int


@dataclass(frozen=True)
class MonoK:
    k: int


Shape = Union[Family, MonoH, MonoK]


class NodeEnd(enum.Enum):
    NODE_IN = "in"    # the node toward the base / previous bubble
    NODE_OUT = "out"  # the node toward the next bubble (absent on end maps)


@dataclass(frozen=True)
class FixedMapKind:
    """One bubble component's fixed map: contact label, degree and shape."""

    contact: Contact
    degree: int
    shape: Shape
    is_end_bubble: bool

    def __post_init__(self):
        d, s = self.degree, self.shape
        if d < 2:
            raise InvalidKindError(f"bubble map degree {d} must be >= 2")
        if isinstance(s, Family):
            if self.contact is Contact.P2:
                raise InvalidKindError("no fixed family exists at a P2 contact")
            if not (1 <= s.h and s.k <= d - 1 and d + s.h == 2 * s.k):
                raise InvalidKindError(f"family exponents (d={d}, h={s.h}, k={s.k})")
            end = s.h == 1
        elif isinstance(s, MonoH):
            if not 1 <= s.h <= d - 1:
                raise InvalidKindError(f"exponent h={s.h} out of range for d={d}")
            if self.contact is not Contact.P2 and s.h % 2 == d % 2:
                raise InvalidKindError(
                    f"MonoH with h = d (mod 2) at {self.contact.name} belongs to"
                    " the family locus"
                )
            end = s.h == 1
        elif isinstance(s, MonoK):
            if not 1 <= s.k <= d - 1:
                raise InvalidKindError(f"exponent k={s.k} out of range for d={d}")
            if s.k == 1 and self.contact is not Contact.P2 and d != 2:
                raise InvalidKindError(
                    f"MonoK(k=1) at {self.contact.name} is only a fixed-locus row"
                    " for degree 2"
                )
            end = s.k == 1
        else:
            raise InvalidKindError(f"unknown shape {s!r}")
        if self.is_end_bubble != end:
            raise InvalidKindError(
                f"is_end_bubble={self.is_end_bubble} inconsistent with shape {s!r}"
            )

    @property
    def outgoing_exponent(self) -> int:
        """Contact order with the far divisor; the next bubble's degree."""
        s = self.shape
        return s.k if isinstance(s, MonoK) else s.h

    def _sort_key(self) -> tuple:
        shape_rank = {Family: 0, MonoH: 1, MonoK: 2}[type(self.shape)]
        return (self.contact.value, shape_rank, self.degree, self.outgoing_exponent)

    def describe(self) -> str:
        s = self.shape
        if isinstance(s, Family):
            body = f"Family(h={s.h},k={s.k})"
        elif isinstance(s, MonoH):
            body = f"MonoH(h={s.h})"
        else:
            body = f"MonoK(k={s.k})"
        tag = "end" if self.is_end_bubble else "ruled"
        return f"{self.contact.name}:d={self.degree}:{body}:{tag}"


def make_kind(contact: Contact, degree: int, shape: Shape) -> FixedMapKind:
    """Build a kind with the end flag inferred from the shape."""
    exp = shape.k if isinstance(shape, MonoK) else shape.h
    return FixedMapKind(contact, degree, shape, exp == 1)


def v4_weights(kind: FixedMapKind) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Weights of the torus action on the bubble's four coordinates, as
    rational multiples of the equivariant parameter, in tabulated order."""
    d, s, c = kind.degree, kind.shape, kind.contact
    if isinstance(s, Family):
        h, k = s.h, s.k
        q = d - k
        if c is Contact.P0:
            return (Fraction(d, q), Fraction(h, q), Fraction(k, q), Fraction(0))
        return (Fraction(-d, q), Fraction(-h, q), Fraction(-k, q), Fraction(0))
    if isinstance(s, MonoH):
        h = s.h
        q = d - h
        if c is Contact.P0:
            return (Fraction(2 * d, q), Fraction(2 * h, q), Fraction(h + d, q), Fraction(0))
        if c is Contact.P1:
            return (Fraction(-2 * d, q), Fraction(-2 * h, q), Fraction(-h - d, q), Fraction(0))
        return (Fraction(-d, q), Fraction(-h, q), Fraction(h - 2 * d, q), Fraction(0))
    k = s.k
    q = d - k
    if c is Contact.P0:
        return (Fraction(d, q), Fraction(2 * k - d, q), Fraction(k, q), Fraction(0))
    if c is Contact.P1:
        return (Fraction(-d, q), Fraction(d - 2 * k, q), Fraction(-k, q), Fraction(0))
    return (Fraction(d, q), Fraction(2 * d - k, q), Fraction(k, q), Fraction(0))


def _action_speed(kind: FixedMapKind) -> Fraction:
    """Speed c of the induced source action [x;y] -> [t^(-c) x; y].

    Derived from equivariance of the monomial map against the bubble's
    weight pattern; the sign flips on the rows whose contact sits at the
    unit-below or (for MonoH) level coordinate.
    """
    d, s, c = kind.degree, kind.shape, kind.contact
    if isinstance(s, Family):
        speed = Fraction(1, d - s.k)
        return speed if c is Contact.P0 else -speed
    if isinstance(s, MonoH):
        if c is Contact.P0:
            return Fraction(2, d - s.h)
        if c is Contact.P1:
            return Fraction(-2, d - s.h)
        return Fraction(-1, d - s.h)
    speed = Fraction(1, d - s.k)
    return -speed if c is Contact.P1 else speed


def source_tangent_weight(kind: FixedMapKind, end: NodeEnd) -> Fraction:
    """Tangent weight of the source curve at the given node, as a rational
    multiple of the equivariant parameter.  Opposite ends negate."""
    c = _action_speed(kind)
    return -c if end is NodeEnd.NODE_IN else c


def base_tangent_weight(d: int) -> Fraction:
    """Tangent weight of the degree-d base component at its node over 0.

    The node over infinity carries +1/d; with the whole infinity side
    evaluated in the 0-side frame and flipped afterwards, only this value
    enters directly.  The orientation is pinned by the degree-2 smoothing
    factors -2/(3a) and -2/(5a).
    """
    return Fraction(-1, d)


_TRANSITION = {
    (Contact.P0, Family): Contact.P1,
    (Contact.P0, MonoH): Contact.P1,
    (Contact.P0, MonoK): Contact.P2,
    (Contact.P1, Family): Contact.P0,
    (Contact.P1, MonoH): Contact.P0,
    (Contact.P1, MonoK): Contact.P2,
    (Contact.P2, MonoH): Contact.P0,
    (Contact.P2, MonoK): Contact.P1,
}


def transition(kind: FixedMapKind) -> Optional[Tuple[Contact, int]]:
    """Next bubble's (contact, degree), or None for an end map.

    The outgoing direction inherits the role its weight plays in the next
    bubble's pattern; working that role out row by row gives a fixed
    automaton on the three contact labels.
    """
    if kind.is_end_bubble:
        return None
    return (_TRANSITION[(kind.contact, type(kind.shape))], kind.outgoing_exponent)


@dataclass(frozen=True)
class Chain:
    """The bubble maps over one of the two fixed points, base outwards."""

    steps: Tuple[FixedMapKind, ...]

    def __post_init__(self):
        steps = self.steps
        if not steps:
            raise ValueError("a chain has at least one bubble")
        if steps[0].contact is not Contact.P0:
            raise ValueError("the first bubble meets the divisor at a P0 contact")
        for prev, nxt in zip(steps, steps[1:]):
            expected = transition(prev)
            if expected != (nxt.contact, nxt.degree):
                raise ValueError(
                    f"step {nxt.describe()} does not follow {prev.describe()}"
                )
        for step in steps[:-1]:
            if step.is_end_bubble:
                raise ValueError("only the last step may be an end bubble")
        if not steps[-1].is_end_bubble:
            raise ValueError("the last step must be an end bubble")
        # chains key the per-side caches, and hashing the steps anew costs a
        # dozen Python-level calls; a copy or an unpickled chain hashes again
        object.__setattr__(self, "_hash", hash(steps))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Chain, (self.steps,)

    @property
    def degree(self) -> int:
        return self.steps[0].degree

    def _sort_key(self) -> tuple:
        return (len(self.steps), tuple(s._sort_key() for s in self.steps))

    def describe(self) -> str:
        return " -> ".join(s.describe() for s in self.steps)


@dataclass(frozen=True)
class Configuration:
    """A full fixed locus: cover degree plus the chains over 0 and infinity."""

    cover_degree: int
    chain_zero: Chain
    chain_infinity: Chain

    def __post_init__(self):
        for chain in (self.chain_zero, self.chain_infinity):
            if chain.degree != self.cover_degree:
                raise ValueError("chain degree must equal the cover degree")

    def describe(self) -> str:
        return (
            f"zero:[{self.chain_zero.describe()}] "
            f"infinity:[{self.chain_infinity.describe()}]"
        )


def _step_candidates(contact: Contact, m: int) -> Iterator[FixedMapKind]:
    """All fixed-map rows for a degree-m bubble met at the given contact."""
    if contact in (Contact.P0, Contact.P1):
        for h in range(1, m):
            if (m + h) % 2 == 0:
                yield make_kind(contact, m, Family(h, (m + h) // 2))
            else:
                yield make_kind(contact, m, MonoH(h))
        for k in range(1, m):
            if k == 1 and m != 2:
                continue  # no isolated fixed locus: see module docstring
            yield make_kind(contact, m, MonoK(k))
    else:
        for h in range(1, m):
            yield make_kind(contact, m, MonoH(h))
        for k in range(1, m):
            yield make_kind(contact, m, MonoK(k))


def successors(contact: Contact, m: int, w: Fraction) -> Iterator[tuple]:
    """Kept rows ``(kind, w_in, next_state)`` of a degree-m bubble met at
    ``contact`` through a node whose far side has weight ``w``; ``next_state``
    is ``(*transition(kind), -w_in)``, or None for an end map."""
    for kind in _step_candidates(contact, m):
        w_in = source_tangent_weight(kind, NodeEnd.NODE_IN)
        if w + w_in == 0:
            continue  # broken limit of a family locus; see the module docstring
        nxt = transition(kind)
        yield kind, w_in, None if nxt is None else (*nxt, -w_in)


def _extend(prefix: tuple, state: tuple, out: list):
    for kind, _, nxt in successors(*state):
        if nxt is None:
            out.append(Chain(prefix + (kind,)))
        else:
            _extend(prefix + (kind,), nxt, out)


def enumerate_chains(d: int) -> list:
    """All bubble chains over one fixed point for a degree-d cover, in the
    stable sort order (chain length, then per-step row keys)."""
    if d < 2:
        raise UnsupportedDegreeError(f"degree must be at least 2, got {d}")
    out: list = []
    _extend((), (Contact.P0, d, base_tangent_weight(d)), out)
    out.sort(key=Chain._sort_key)
    return out


def enumerate_configurations(d: int) -> list:
    """All fixed-point configurations with nonvanishing contribution: the
    chains over 0 and over infinity paired independently."""
    chains = enumerate_chains(d)
    return [
        Configuration(d, c0, ci)
        for c0 in chains
        for ci in chains
    ]
