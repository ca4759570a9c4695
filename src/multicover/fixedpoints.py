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

A map ramified at its far point (outgoing exponent e >= 2) forces another
blow-up, so the chain continues with a bubble of degree e; e == 1 ends the
chain.  The whole row model is one table and one rule:

* ``_ROWS``, keyed by (contact, shape type), gives the next bubble's contact
  (the chain automaton) and the numerator n of a degree-m bubble's incoming
  node weight -n / (m - e), the one node weight ``source_tangent_weight`` gives;
* ``_row_refusal`` says why (contact, m, shape) is not a row, or None; it
  validates kinds, and ``_step_candidates`` lists once the rows it admits:
  families, then ``MonoH``, then ``MonoK``, each by ascending exponent.
  At ``P0``/``P1`` it refuses a ``MonoH`` with ``h == m (mod 2)`` (a limit
  of the family with ``k == (m+h)/2``) and, unless m == 2, ``MonoK(1)``.

A row whose attaching node has zero smoothing weight is the broken limit
of a family locus (the node deformation is the family direction), whose
integral counts it.  Both readers of :func:`_step_candidates` drop it: the
chain walker :func:`enumerate_chains` (and :class:`Chain`) as a row whose
``w_in``, a reduced pair of ints like every row weight, equals the far
weight negated, and the state table of :mod:`localize` as a zero
denominator in a state's sum.  The walk goes first in, first out, so chains
leave it in the published order, by number of steps and then row by row.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from functools import lru_cache

from ._record import Record

__all__ = [
    "Contact",
    "Family",
    "MonoH",
    "MonoK",
    "FixedMapKind",
    "Chain",
    "Configuration",
    "UnsupportedDegreeError",
    "InvalidKindError",
    "Shape",
    "v4_weights",
    "source_tangent_weight",
    "base_tangent_weight",
    "transition",
    "enumerate_chains",
    "enumerate_configurations",
]


class UnsupportedDegreeError(ValueError):
    """Cover degree outside the supported range (d >= 2)."""


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; a float, ``str`` or ``Fraction`` raises a TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r} ({type(value).__name__})") from None


def _cover_degree(d) -> int:
    """The cover degree d by :func:`_integer`; below 2 it raises UnsupportedDegreeError."""
    n = _integer("degree", d)
    if n < 2:
        raise UnsupportedDegreeError(f"degree must be at least 2, got {d!r}")
    return n


class InvalidKindError(ValueError):
    """A (contact, shape, degree) combination that is not a fixed-map row."""


class Contact(enum.Enum):
    """Role of the contact coordinate in the bubble's weight pattern."""

    P0 = 0  # [1;0;0;0]-type: contact at the unit-above coordinate
    P1 = 1  # [0;1;0;0]-type: contact at the unit-below coordinate
    P2 = 2  # [0;0;1;0]-type: contact at the level coordinate


class Family(Record):
    def __init__(self, h: int, k: int):
        fields = self.__dict__
        fields["h"], fields["k"] = h, k


class MonoH(Record):
    def __init__(self, h: int):
        self.__dict__["h"] = h


class MonoK(Record):
    def __init__(self, k: int):
        self.__dict__["k"] = k


Shape = Family | MonoH | MonoK


# (contact, shape type) -> (next bubble's contact, speed numerator n), as in the module docstring
_ROWS = {
    (Contact.P0, Family): (Contact.P1, 2),
    (Contact.P1, Family): (Contact.P0, -2),
    (Contact.P0, MonoH): (Contact.P1, 2),
    (Contact.P1, MonoH): (Contact.P0, -2),
    (Contact.P2, MonoH): (Contact.P0, -1),
    (Contact.P0, MonoK): (Contact.P2, 1),
    (Contact.P1, MonoK): (Contact.P2, -1),
    (Contact.P2, MonoK): (Contact.P1, 1),
}


def _row_refusal(contact: Contact, d: int, s: Shape) -> str | None:
    """Why ``(contact, d, s)`` is not a fixed-map row, or None if it is one."""
    if d < 2:
        return f"bubble map degree {d} must be >= 2"
    if isinstance(s, Family):
        if contact is Contact.P2:
            return "no fixed family exists at a P2 contact"
        if not (1 <= s.h and s.k <= d - 1 and d + s.h == 2 * s.k):
            return f"family exponents (d={d}, h={s.h}, k={s.k})"
    elif isinstance(s, MonoH):
        if not 1 <= s.h <= d - 1:
            return f"exponent h={s.h} out of range for d={d}"
        if contact is not Contact.P2 and s.h % 2 == d % 2:
            return f"MonoH with h = d (mod 2) at {contact.name} belongs to the family locus"
    elif isinstance(s, MonoK):
        if not 1 <= s.k <= d - 1:
            return f"exponent k={s.k} out of range for d={d}"
        if s.k == 1 and contact is not Contact.P2 and d != 2:
            return f"MonoK(k=1) at {contact.name} is only a fixed-locus row for degree 2"
    else:
        return f"unknown shape {s!r}"
    return None


class FixedMapKind(Record):
    """One bubble component's fixed map: contact label, degree and shape, their
    types checked once per built kind (``_row_refusal`` screens shapes, not types)."""

    def __init__(self, contact: Contact, degree: int, shape: Shape):
        fields = self.__dict__
        fields["contact"], fields["degree"], fields["shape"] = contact, degree, shape
        if not isinstance(contact, Contact):
            raise TypeError(f"contact must be a Contact, got {contact!r} ({type(contact).__name__})")
        _integer("degree", degree)
        if isinstance(shape, Shape):
            for name, value in vars(shape).items():
                _integer(name, value)
        refusal = _row_refusal(contact, degree, shape)
        if refusal is not None:
            raise InvalidKindError(refusal)

    @property
    def outgoing_exponent(self) -> int:
        """Contact order with the far divisor; the next bubble's degree."""
        s = self.shape
        return s.k if isinstance(s, MonoK) else s.h

    @property
    def is_end_bubble(self) -> bool:
        """A map unramified at its far point ends the chain."""
        return self.outgoing_exponent == 1

    def describe(self) -> str:
        body = repr(self.shape).replace(" ", "")  # the Record repr: Family(h=1,k=2), MonoK(k=2), ...
        tag = "end" if self.is_end_bubble else "ruled"
        return f"{self.contact.name}:d={self.degree}:{body}:{tag}"


def v4_weights(kind: FixedMapKind) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Weights of the torus action on the bubble's four coordinates, as
    rational multiples of the equivariant parameter, in tabulated order.
    With x = ``h`` on ``MonoH``, else ``k`` (a family has h = 2k - d), they
    are one P0 and one P2 form over q = d - x per class, ``MonoH`` or not;
    a P1 bubble carries its P0 twin's weights negated."""
    d, s, c = kind.degree, kind.shape, kind.contact
    x = s.h if isinstance(s, MonoH) else s.k
    if isinstance(s, MonoH):
        w = (-d, -x, x - 2 * d) if c is Contact.P2 else (2 * d, 2 * x, x + d)
    else:
        w = (d, 2 * d - x, x) if c is Contact.P2 else (d, 2 * x - d, x)
    sign = -1 if c is Contact.P1 else 1
    return (*(Fraction(sign * n, d - x) for n in w), Fraction(0))


def _tangent_weight(kind: FixedMapKind) -> tuple[int, int]:
    """-n / (d - e), n from ``_ROWS`` and e < d the outgoing exponent, as a
    reduced pair of ints ``(a, b)`` with b > 0."""
    a, b = -_ROWS[kind.contact, type(kind.shape)][1], kind.degree - kind.outgoing_exponent
    g = math.gcd(a, b)
    return a // g, b // g


def source_tangent_weight(kind: FixedMapKind) -> Fraction:
    """Tangent weight of the source curve at its incoming node, in units of the
    equivariant parameter: :func:`_tangent_weight` as a ``Fraction``.  The
    outgoing node's weight is its negative, which equals w0 / d for w0 the
    first of :func:`v4_weights`."""
    return Fraction(*_tangent_weight(kind))


def base_tangent_weight(d: int) -> Fraction:
    """Tangent weight of the degree-d base component at its node over 0.

    The node over infinity carries +1/d; with the whole infinity side
    evaluated in the 0-side frame and flipped afterwards, only this value
    enters directly.  The orientation is pinned by the degree-2 smoothing
    factors -2/(3a) and -2/(5a).
    """
    d = _integer("degree", d)
    if d < 1:
        raise ValueError(f"base component degree must be >= 1, got {d}")
    return Fraction(-1, d)


def transition(kind: FixedMapKind) -> tuple[Contact, int] | None:
    """Next bubble's (contact, degree), or None for an end map.  The
    outgoing direction inherits the role its weight plays in the next
    bubble's pattern, which gives the automaton column of ``_ROWS``."""
    e = kind.outgoing_exponent
    return None if e == 1 else (_ROWS[kind.contact, type(kind.shape)][0], e)


class Chain(Record):
    """The bubble maps over one of the two fixed points, base outwards.  Every
    chain, walked or built, is checked when built in one pass, from (P0, d) through
    the bubble each step's ``transition`` names, to an end map, over no node whose
    weights cancel (the pair comparison of :func:`enumerate_chains`)."""

    def __init__(self, steps: tuple[FixedMapKind, ...]):
        steps = tuple(steps)  # a list would make the chain unhashable
        self.__dict__["steps"] = steps
        if not steps:
            raise ValueError("a chain has at least one bubble")
        expected, drop = (Contact.P0, steps[0].degree), (1, steps[0].degree)
        for i, step in enumerate(steps):
            if (step.contact, step.degree) != expected:
                prev = steps[i - 1].describe() if i else "the base"
                raise ValueError(f"step {step.describe()} does not follow {prev}")
            if (w_in := _tangent_weight(step)) == drop:
                w, at = Fraction(*w_in), f"{step.describe()} at smooth[{i or 'base'}->{i + 1}]"
                raise ValueError(f"step {at}: node weights {-w} and {w} sum to zero")
            expected, drop = transition(step), w_in
        if expected is not None:
            raise ValueError("the last step must be an end bubble")

    @property
    def degree(self) -> int:
        return self.steps[0].degree

    def describe(self) -> str:
        return " -> ".join(s.describe() for s in self.steps)


class Configuration(Record):
    """A full fixed locus: cover degree plus the chains over 0 and infinity."""

    def __init__(self, cover_degree: int, chain_zero: Chain, chain_infinity: Chain):
        fields = self.__dict__
        fields["cover_degree"], fields["chain_zero"], fields["chain_infinity"] = (
            cover_degree, chain_zero, chain_infinity
        )
        d = _cover_degree(cover_degree)
        zero, infinity = chain_zero.degree, chain_infinity.degree
        if {zero, infinity} != {d}:
            raise ValueError(f"chain degrees {zero} and {infinity} must equal the cover degree {d}")

    def describe(self) -> str:
        return (
            f"zero:[{self.chain_zero.describe()}] "
            f"infinity:[{self.chain_infinity.describe()}]"
        )


@lru_cache(maxsize=None)
def _step_candidates(contact: Contact, m: int) -> tuple[tuple, ...]:
    """Every fixed-map row ``(kind, w_in, next_state)`` of a degree-m bubble met
    at ``contact``, listed once: the families, then MonoH, then MonoK, each by
    ascending exponent.  ``w_in`` is the row's incoming node weight a/b as the
    reduced pair (a, b), b > 0, and ``next_state`` ``(*transition(kind), (-a, b))``,
    or None for an end map."""
    shapes = [Family(h, (m + h) // 2) for h in range(m % 2 or 2, m, 2)]  # k integral: h = m (mod 2)
    shapes += [MonoH(h) for h in range(1, m)] + [MonoK(k) for k in range(1, m)]
    rows = []
    for s in shapes:
        if _row_refusal(contact, m, s) is None:
            kind = FixedMapKind(contact, m, s)
            w_in = _tangent_weight(kind)
            nxt = transition(kind)
            rows.append((kind, w_in, None if nxt is None else (*nxt, (-w_in[0], w_in[1]))))
    return tuple(rows)


def enumerate_chains(d: int) -> list:
    """All bubble chains over one fixed point for a degree-d cover, in the
    published order: by number of steps, then step by step in the row order
    of :func:`_step_candidates`.  The walk takes entries from one list in the
    order they join it; an end row ends a chain.  An entry carries the w_in
    pair of the row that led to its bubble, -w for the far weight w ((1, d) at
    the base, w = -1/d), and a row with that same pair, w + w_in == 0, is dropped."""
    d = _cover_degree(d)
    out: list = []
    pending = [((), Contact.P0, d, (1, d))]
    for prefix, contact, m, drop in pending:
        for kind, w_in, nxt in _step_candidates(contact, m):
            if w_in == drop:
                continue
            if nxt is None:
                out.append(Chain(prefix + (kind,)))
            else:
                pending.append((prefix + (kind,), nxt[0], nxt[1], w_in))
    return out


def enumerate_configurations(d: int) -> list:
    """All fixed-point configurations with nonvanishing contribution: the
    chains over 0 and over infinity paired independently."""
    d = _cover_degree(d)
    chains = enumerate_chains(d)
    return [
        Configuration(d, c0, ci)
        for c0 in chains
        for ci in chains
    ]
