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
  one-parameter family of fixed maps (none at a ``P2`` contact);
* ``MonoH(h)``: only the unit-below slot filled;
* ``MonoK(k)``: only the level slot filled.

A map ramified at its far point (outgoing exponent e >= 2) forces another
blow-up, so the chain continues with a bubble of degree e; e == 1 ends the
chain.  README's "How it works", step 1, walks through the row table and
its readers.

Two rows are excluded for a reason the code does not show.  At ``P0``/``P1``
a ``MonoH`` with ``h == m (mod 2)`` is a limit of the family with
``k == (m+h)/2``, which counts it.  A row whose attaching node has zero
smoothing weight is the broken limit of a family locus (the node
deformation is the family direction), whose integral counts it too: the
chain walker drops it, and so does the state sum of :mod:`localize`.
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


# (contact, shape type) -> (next bubble's contact, numerator n of the incoming weight -n / (m - e))
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


def _outgoing_exponent(s: Shape) -> int:
    """Contact order of a map of shape ``s`` with the far divisor: k on ``MonoK``, else h."""
    return s.k if isinstance(s, MonoK) else s.h


def _row_step(contact: Contact, m: int, s: Shape) -> tuple[tuple[int, int], tuple | None]:
    """``(w_in, next_state)`` of the row (contact, m, s), from one ``_ROWS`` read:
    w_in = -n / (m - e) as the reduced pair (a, b), b > 0, and next_state
    ``(next contact, e, (-a, b))``, the next bubble met with the far weight,
    or None for an end map (e == 1)."""
    nxt, n = _ROWS[contact, type(s)]
    e = _outgoing_exponent(s)
    g = math.gcd(n, m - e)
    a, b = -n // g, (m - e) // g
    return (a, b), None if e == 1 else (nxt, e, (-a, b))


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
        return _outgoing_exponent(self.shape)

    @property
    def is_end_bubble(self) -> bool:
        """A map unramified at its far point ends the chain."""
        return self.outgoing_exponent == 1

    def describe(self) -> str:
        body = repr(self.shape).replace(" ", "")  # the Record repr: Family(h=1,k=2), MonoK(k=2), ...
        tag = "end" if self.is_end_bubble else "ruled"
        return f"{self.contact.name}:d={self.degree}:{body}:{tag}"


def source_tangent_weight(kind: FixedMapKind) -> Fraction:
    """Tangent weight of the source curve at its incoming node, in units of the
    equivariant parameter: the ``w_in`` pair of :func:`_row_step` as a
    ``Fraction``.  The outgoing node's weight is its negative."""
    return Fraction(*_row_step(kind.contact, kind.degree, kind.shape)[0])


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
    nxt = _row_step(kind.contact, kind.degree, kind.shape)[1]
    return None if nxt is None else nxt[:2]


class Chain(Record):
    """The bubble maps over one of the two fixed points, base outwards.  Every
    chain, walked or built, is checked when built in one pass, from (P0, d) through
    the bubble each step's :func:`_row_step` names, to an end map, over no node whose
    weights cancel (the pair comparison of :func:`enumerate_chains`)."""

    def __init__(self, steps: tuple[FixedMapKind, ...]):
        steps = tuple(steps)  # a list would make the chain unhashable
        self.__dict__["steps"] = steps
        if not steps:
            raise ValueError("a chain has at least one bubble")
        for i, step in enumerate(steps):
            if not isinstance(step, FixedMapKind):
                raise TypeError(
                    f"steps[{i}] must be a FixedMapKind, got {step!r} ({type(step).__name__})"
                )
            if not i:
                expected, drop = (Contact.P0, step.degree), (1, step.degree)
            if (step.contact, step.degree) != expected:
                prev = steps[i - 1].describe() if i else "the base"
                raise ValueError(f"step {step.describe()} does not follow {prev}")
            w_in, nxt = _row_step(step.contact, step.degree, step.shape)
            if w_in == drop:
                w, at = Fraction(*w_in), f"{step.describe()} at smooth[{i or 'base'}->{i + 1}]"
                raise ValueError(f"step {at}: node weights {-w} and {w} sum to zero")
            expected, drop = None if nxt is None else nxt[:2], w_in
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
        for name, chain in (("chain_zero", chain_zero), ("chain_infinity", chain_infinity)):
            if not isinstance(chain, Chain):
                raise TypeError(f"{name} must be a Chain, got {chain!r} ({type(chain).__name__})")
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
    """Every fixed-map row ``(shape, w_in, next_state)`` of a degree-m bubble met
    at ``contact``, listed once: the families, then MonoH, then MonoK, each by
    ascending exponent.  ``w_in`` and ``next_state`` are those of :func:`_row_step`:
    the row's incoming node weight a/b as the reduced pair (a, b), b > 0, and
    ``(next contact, e, (-a, b))``, or None for an end map.  No kind is built."""
    shapes = [Family(h, (m + h) // 2) for h in range(m % 2 or 2, m, 2)]  # k integral: h = m (mod 2)
    shapes += [MonoH(h) for h in range(1, m)] + [MonoK(k) for k in range(1, m)]
    return tuple(
        (s, *_row_step(contact, m, s)) for s in shapes if _row_refusal(contact, m, s) is None
    )


def enumerate_chains(d: int) -> list:
    """All bubble chains over one fixed point for a degree-d cover, in the
    published order: by number of steps, then step by step in the row order
    of :func:`_step_candidates`.  The walk takes entries from one list in the
    order they join it; an end row ends a chain.  An entry carries the w_in
    pair of the row that led to its bubble, -w for the far weight w ((1, d) at
    the base, w = -1/d), and a row with that same pair, w + w_in == 0, is dropped.
    Each reached bubble's rows become kinds once per call, in a local dict."""
    d = _cover_degree(d)
    out: list = []
    kinds: dict = {}
    pending = [((), Contact.P0, d, (1, d))]
    for prefix, contact, m, drop in pending:
        rows = _step_candidates(contact, m)
        if (contact, m) not in kinds:
            kinds[contact, m] = [FixedMapKind(contact, m, s) for s, _, _ in rows]
        for kind, (_, w_in, nxt) in zip(kinds[contact, m], rows):
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
