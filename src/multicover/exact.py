"""Exact scalar arithmetic for equivariant weight computations.

Every quantity in the fixed-point sums is one of two things:

* an arbitrary-precision rational (``fractions.Fraction``),
* a single Laurent monomial ``c * a^k`` in the equivariant parameter ``a``
  (``k`` may be negative).

The module also implements the factored-rational text format used by the
shipped results table (e.g. ``-1/(2^3*5^2)``), together with the integer
factorization needed to emit it.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from ._record import Record

__all__ = [
    "AlphaMonomial",
    "FactoredRational",
    "FactoredFormatError",
    "alpha_flip",
    "format_factored",
    "parse_factored",
    "factorize",
    "is_prime",
]


class AlphaMonomial(Record):
    """``coeff * a^power`` with an exact rational coefficient.

    The zero monomial is canonicalized to power 0 so equality works.
    """

    def __init__(self, coeff: Fraction, power: int = 0):
        if not isinstance(coeff, (Fraction, int)):  # a float's binary value is not exact
            raise TypeError(f"coefficient must be int or Fraction, not {type(coeff).__name__}")
        coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        if coeff == 0:
            power = 0
        fields = self.__dict__
        fields["coeff"], fields["power"] = coeff, operator.index(power)  # a float raises

    def __mul__(self, other: AlphaMonomial) -> AlphaMonomial:
        if isinstance(other, AlphaMonomial):
            return AlphaMonomial(self.coeff * other.coeff, self.power + other.power)
        if isinstance(other, (int, Fraction)):  # Python raises the TypeError for anything else
            return AlphaMonomial(self.coeff * other, self.power)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.coeff}*a^{self.power}"


def alpha_flip(x: AlphaMonomial) -> AlphaMonomial:
    """Apply a -> -a: each monomial c*a^k becomes (-1)^k * c * a^k.

    An involution and a multiplicative homomorphism.
    """
    return AlphaMonomial(-x.coeff, x.power) if x.power % 2 else x


# ---------------------------------------------------------------------------
# integer factorization
# ---------------------------------------------------------------------------

def _sieve(limit: int) -> bytearray:
    """Byte i is 1 exactly when i < limit is prime."""
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return sieve

_TRIAL_PRIMES = list(itertools.compress(range(10_000), _sieve(10_000)))


def _segment(lo: int, hi: int) -> bytearray:
    """Byte i is 1 exactly when lo + i is prime, for 2 <= lo < hi <= 10007**2
    (a composite below 10007**2 has a prime factor in ``_TRIAL_PRIMES``)."""
    seg = bytearray([1]) * (hi - lo)
    for p in itertools.takewhile(lambda p: p * p < hi, _TRIAL_PRIMES):
        start = max(p * p - lo, -lo % p)
        seg[start::p] = bytes(len(range(start, hi - lo, p)))
    return seg


# Smallest composite passing Miller-Rabin for the first 12 prime bases.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_WIDE = tuple(_TRIAL_PRIMES[:25])


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < ~3.3e24."""
    n = operator.index(n)  # a float raises
    if n < 2:
        return False
    for p in _TRIAL_PRIMES[:60]:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_DETERMINISTIC_BOUND else _MR_BASES_WIDE
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Lenstra's elliptic-curve method on Montgomery curves B*y^2 = x^3 + A*x^2 + x
# in x-only projective (X:Z) coordinates; a24 = (A + 2) / 4.

def _ladder(k: int, x: int, a24: int, n: int) -> tuple:
    """(X:Z) of k*P for k >= 1 and P = (x:1), by the Montgomery ladder from
    (R0, R1) = (O, P): a 0 bit makes it (2*R0, R0 + R1), a 1 bit (by a swap)
    (R0 + R1, 2*R1), so R1 - R0 = P throughout."""
    x0, z0, x1, z1 = 1, 0, x, 1
    for bit in bin(k)[2:]:
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        s, d = x0 + z0, x0 - z0
        u, v = d * (x1 + z1) % n, s * (x1 - z1) % n
        s, d = s * s % n, d * d % n
        t = s - d
        x0, z0, x1, z1 = s * d % n, t * (d + a24 * t) % n, (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


def _progression(p0: tuple, p1: tuple, step: tuple, n: int):
    """Yield P0, P1, P1 + S, P1 + 2S, ... as (X, Z) pairs, given P1 = P0 + S:
    each term is a differential addition of S and the last term."""
    (x0, z0), (x1, z1), (xs, zs) = p0, p1, step
    while True:
        yield x0, z0
        u, v = (x1 - z1) * (xs + zs) % n, (x1 + z1) * (xs - zs) % n
        x0, z0, x1, z1 = x1, z1, z0 * (u + v) ** 2 % n, x0 * (u - v) ** 2 % n


def _affine(points: list, n: int):
    """X/Z mod n for every (X, Z) in points, with one inversion (Montgomery's
    trick).  If some Z is not invertible, return instead the product of the
    Zs, which shares a factor with n."""
    before = list(itertools.accumulate((z for _, z in points), lambda a, z: a * z % n, initial=1))
    if math.gcd(before[-1], n) > 1:
        return before[-1]
    inv, xs = pow(before.pop(), -1, n), []
    for (x, z), b in zip(reversed(points), reversed(before)):
        xs.append(x * b % n * inv % n)
        inv = inv * z % n
    return xs[::-1]


def _stage1(b1: int) -> list:
    """Stage 1's multiplier, the product of the largest powers <= b1 of the
    primes <= b1, as ascending block products split where the primes pass
    64, 256, 1024, ... (64*4^i): a curve takes one gcd per block."""
    blocks, edge = [[]], 64
    for p in itertools.compress(range(b1 + 1), _sieve(b1 + 1)):
        if p > edge:  # Bertrand: every (edge, 4*edge] holds a prime
            blocks.append([])
            edge *= 4
        q = p
        while q * p <= b1:
            q *= p
        blocks[-1].append(q)
    return list(map(math.prod, blocks))


_ECM_D = 2310  # stage-2 giant-step width 2*3*5*7*11; baby steps are odd j < D/2
# giant steps made affine at once per curve, and sieved at once (~0.9 MB
# segment) when a level's masks are built, as its first curve reaches stage 2;
# the masks, 577 bytes per giant step, live as long as the _ecm call is at their level
_ECM_BLOCK = 400
# the odd j < D/2 prime to D: the only ones for which m*D +- j can be prime
_ECM_BABY_J = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)


def _stage2_masks(b1: int) -> tuple:
    """(m0, masks) for the stage-2 giant steps m, from m0 = b1 // D (at
    least 1) to the first m with m*D > 100*b1, so that the m*D +- j cover
    (b1, 100*b1]: each m's mask has a byte per odd j < D/2 (slot j // 2),
    1 exactly when m*D + j or m*D - j is prime.  The masks depend on b1
    alone, so every curve of an ``_ecm`` call at one level shares them
    (54 KB at b1 = 2000, 26.5 MB at 10^6)."""
    half, ms, masks = _ECM_D // 2, range(max(b1 // _ECM_D, 1), 100 * b1 // _ECM_D + 2), []
    for i in range(0, len(ms), _ECM_BLOCK):
        block = ms[i : i + _ECM_BLOCK]
        seg = _segment(block[0] * _ECM_D - half, block[-1] * _ECM_D + half)
        for c in range(half, len(seg), _ECM_D):  # seg[c] is m*D
            # the bytes are 0 or 1, so the integers' OR is the bytewise OR
            up = int.from_bytes(seg[c + 1 : c + half : 2], "big")
            down = int.from_bytes(seg[c - 1 : c - half : -2], "big")
            masks.append((up | down).to_bytes(half // 2, "big"))
    return ms[0], masks


def _stage2(x: int, a24: int, level: tuple, n: int) -> int:
    """Product of x(m*D*Q) - x(j*Q) over giant steps m >= 1 and j < D/2 prime
    to D with m*D + j or m*D - j prime, for Q = (x:1) and ``level`` =
    ``_stage2_masks(b1)``, b1 >= D/2: it shares a factor with n when a prime
    q in (b1, 100*b1] kills Q modulo that factor.  Both points are affine, so
    a pair of primes costs one product.  A Z that cannot be inverted is
    returned at once: it is a multiple of a factor.  The baby steps j*Q run
    as two progressions of step 6Q, over j = 1 and j = 5 (mod 6), and only
    the 240 j prime to D are made affine.  Which pairs hold a prime is read
    from the level's masks, shared by every curve at that level, so a curve
    only advances its giant steps, makes each block of them affine and
    multiplies the selected differences."""
    half = _ECM_D // 2
    six = _ladder(6, x, a24, n)
    ones = _progression((x, 1), _ladder(7, x, a24, n), six, n)
    fives = _progression(_ladder(5, x, a24, n), _ladder(11, x, a24, n), six, n)
    points = dict(zip(range(1, half, 6), ones)) | dict(zip(range(5, half, 6), fives))
    xs = _affine([*map(points.get, _ECM_BABY_J), _ladder(_ECM_D, x, a24, n)], n)
    if isinstance(xs, int):
        return xs
    # one slot per odd j, at j // 2 as in the masks; the 0 of a j sharing a
    # prime with D is never selected, as m*D +- j is never prime
    baby = [0] * (half // 2)
    for j, bx in zip(_ECM_BABY_J, xs):
        baby[j // 2] = bx
    step, (m0, masks) = xs[-1], level
    giants = _progression(_ladder(m0, step, a24, n), _ladder(m0 + 1, step, a24, n), (step, 1), n)
    acc = 1
    for i in range(0, len(masks), _ECM_BLOCK):
        block = masks[i : i + _ECM_BLOCK]
        xs = _affine(list(itertools.islice(giants, len(block))), n)
        if isinstance(xs, int):
            return xs
        for gx, mask in zip(xs, block):
            for bx in itertools.compress(baby, mask):
                acc = acc * (gx - bx) % n
    return acc


# (B1, curves) for the successive ECM levels; None repeats that level without end
_ECM_LEVELS = ((2000, 25), (11000, 90), (50000, 300), (250000, 700), (1_000_000, None))


def _ecm(n: int) -> int:
    """Return a nontrivial factor of n: composite, odd, not a perfect power.

    Each curve walks stage 1 once, block by block (``_stage1``), and stops
    at the first block whose gcd is above 1; stage 2 runs only when every
    block gave 1.  Suyama curves have group orders divisible by 12, so for
    primes below ~24000 stage 1 kills the point modulo every prime of n,
    and only the blocks they die in separate them.  A gcd of n is no
    factor, and parting its primes would mean walking the block again, so
    that curve is dropped.
    """
    import random  # not at the top: every command would pay for it at start-up

    rng = random.Random(n)  # the curves are deterministic per input
    for b1, curves in _ECM_LEVELS:
        blocks, level = _stage1(b1), None  # this call's tables for the level, dropped with it
        for _ in itertools.count() if curves is None else range(curves):
            sigma = rng.randrange(6, n - 1)
            u, v = (sigma * sigma - 5) % n, 4 * sigma % n
            x, z = pow(u, 3, n), pow(v, 3, n)
            den = 16 * x * v * z % n  # 16 u^3 v^4: one inversion for a24 and x
            g = math.gcd(den, n)
            if g == 1:
                inv = pow(den, -1, n)
                a24 = pow(v - u, 3, n) * (3 * u + v) * z * inv % n
                x = 16 * x * x * v * inv % n  # u^3 / v^3
                for k in blocks:
                    xk, zk = _ladder(k, x, a24, n)
                    g = math.gcd(zk, n)
                    if g > 1:
                        break
                    x = xk * pow(zk, -1, n) % n
                else:
                    if level is None:  # the level's masks, once a curve there reaches stage 2
                        level = _stage2_masks(b1)
                    g = math.gcd(_stage2(x, a24, level, n), n)
            if 1 < g < n:
                return g


def _int_nth_root(n: int, e: int) -> int:
    """Floor of the e-th root of n, by integer Newton iteration."""
    if n < (1 << e):
        return 1
    x = 1 << ((n.bit_length() + e - 1) // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _perfect_power(n: int):
    """Return (root, e) with root**e == n and e prime (e == 1 if none).

    Only prime exponents are tried: the root goes back on ``factorize``'s
    list, which finds any further power.  n has no prime factor in
    ``_TRIAL_PRIMES``, so e <= n.bit_length() / 13 and the trial primes
    hold every candidate for n below ~130000 bits.
    """
    for e in _TRIAL_PRIMES:
        if e > n.bit_length():
            break
        root = _int_nth_root(n, e)
        if root**e == n:
            return root, e
    return n, 1


def factorize(n: int) -> list:
    """Prime factorization of n >= 1 as a sorted list of (prime, exponent).

    Trial division by primes below 10^4 first, then a list of pending
    (cofactor, multiplicity k) pairs: Miller-Rabin tests each, a prime adds k
    to its exponent, a perfect power root**e returns as (root, k*e), and
    Lenstra's elliptic-curve method (ECM) splits the rest in two.  An ECM
    curve walks stage 1 to B1 once, in blocks of primes with a gcd after
    each, and only a curve whose blocks all give gcd 1 runs a stage 2 that
    pairs the primes in (B1, 100*B1] as m*2310 +- j at one product per
    pair; which pairs hold a prime is sieved once per level and freed when
    the ECM call leaves it.
    ECM's cost grows subexponentially with the second-largest prime factor
    of a cofactor, not with its size: the d = 11 invariant's 438938983141369
    (~4.4e14) splits off in about 0.4 s (27 curves, on one core of a shared
    2-vCPU VM).  Pieces above ~3.3e24 are probable primes (Miller-Rabin with
    25 fixed bases), not proven ones.  The curves for a cofactor n come from
    ``random.Random(n)``, so the result is deterministic.
    """
    n = operator.index(n)  # a float raises
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    pending = [(n, 1)] if n > 1 else []
    while pending:
        n, k = pending.pop()
        if is_prime(n):
            out[n] = out.get(n, 0) + k
            continue
        root, e = _perfect_power(n)
        if e > 1:
            pending.append((root, k * e))
            continue
        d = _ecm(n)
        pending += [(d, k), (n // d, k)]
    return sorted(out.items())


# ---------------------------------------------------------------------------
# factored-rational text format
# ---------------------------------------------------------------------------

class FactoredFormatError(ValueError):
    """Raised when factored-rational text does not conform to the grammar."""


class FactoredRational(Record):
    """A nonzero rational as sign and prime-power factor lists.

    Invariants: all bases prime and strictly ascending within each list,
    exponents >= 1, no base shared between numerator and denominator.
    An empty list denotes 1.  Primality is checked with :func:`is_prime`,
    so bases above ~3.3e24 are Miller-Rabin probable primes, not proven
    ones.
    """

    def __init__(self, sign: int, numerator_factors: tuple, denominator_factors: tuple):
        fields = self.__dict__
        fields["sign"], fields["numerator_factors"], fields["denominator_factors"] = (
            sign, numerator_factors, denominator_factors
        )
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        for name, factors in (("numerator", numerator_factors), ("denominator", denominator_factors)):
            prev = 1
            for p, e in factors:
                if not (isinstance(p, int) and isinstance(e, int)):
                    raise ValueError(f"{name} factor {p!r}^{e!r} is not an integer power")
                if not is_prime(p):
                    raise ValueError(f"{name} base {p} is not prime")
                if e < 1:
                    raise ValueError(f"{name} exponent for {p} must be >= 1")
                if p <= prev:
                    raise ValueError(f"{name} primes out of order at {p}")
                prev = p
        shared = {p for p, _ in numerator_factors} & {p for p, _ in denominator_factors}
        if shared:
            raise ValueError(f"base {min(shared)} appears in both products")

    @classmethod
    def from_rational(cls, q: Fraction) -> FactoredRational:
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"expected int or Fraction, not {type(q).__name__}")
        if q == 0:
            raise ValueError("zero has no factored form")
        return cls(
            1 if q > 0 else -1,
            tuple(factorize(abs(q.numerator))),
            tuple(factorize(q.denominator)),
        )

    def value(self) -> Fraction:
        num = math.prod(p**e for p, e in self.numerator_factors)
        den = math.prod(p**e for p, e in self.denominator_factors)
        return Fraction(self.sign * num, den)

    def text(self) -> str:
        """Canonical form: ascending primes, ``*`` separators, denominator
        always parenthesized, multi-factor numerators parenthesized, bare
        ``1`` for unity."""
        num = _product_text(self.numerator_factors)
        sign = "-" if self.sign < 0 else ""
        if not self.denominator_factors:
            return sign + num
        if len(self.numerator_factors) > 1:
            num = f"({num})"
        return f"{sign}{num}/({_product_text(self.denominator_factors)})"

    @classmethod
    def from_text(cls, s: str) -> FactoredRational:
        return _parse_factored_text(s)


def _product_text(factors: tuple) -> str:
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in factors]
    return "*".join(parts) if parts else "1"


def format_factored(q: Fraction) -> str:
    """Render a nonzero rational in the factored grammar, e.g. -1/200 ->
    ``-1/(2^3*5^2)``."""
    return FactoredRational.from_rational(q).text()


def _parse_int(token: str, what: str) -> int:
    if not (token.isascii() and token.isdigit()) or (token[0] == "0" and token != "0"):
        raise FactoredFormatError(f"malformed {what} {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise FactoredFormatError(f"{what} of {len(token)} digits is too long") from None


def _parse_product(text: str) -> tuple:
    if text == "1":
        return ()
    if not text:
        raise FactoredFormatError("empty product")
    factors = []
    for token in text.split("*"):
        base_text, sep, exp_text = token.partition("^")
        base = _parse_int(base_text, "base")
        exp = _parse_int(exp_text, "exponent") if sep else 1
        factors.append((base, exp))
    return tuple(factors)


def _parse_factored_text(s: str) -> FactoredRational:
    if not s or any(ch.isspace() for ch in s):
        raise FactoredFormatError(f"malformed value {s!r}")
    body = s
    sign = 1
    if body.startswith("-"):
        sign, body = -1, body[1:]
    num_text, slash, den_text = body.partition("/")
    if slash:
        if not (den_text.startswith("(") and den_text.endswith(")")):
            raise FactoredFormatError(f"denominator {den_text!r} must be parenthesized")
        den_text = den_text[1:-1]
        if num_text.startswith("(") and num_text.endswith(")"):
            num_text = num_text[1:-1]
    elif "(" in num_text or ")" in num_text:
        raise FactoredFormatError(f"unexpected parentheses in {s!r}")
    num = _parse_product(num_text)
    den = _parse_product(den_text) if slash else ()
    try:
        return FactoredRational(sign, num, den)
    except ValueError as exc:
        raise FactoredFormatError(str(exc)) from exc


def parse_factored(s: str) -> Fraction:
    """Inverse of :func:`format_factored` (accepts the full grammar)."""
    return _parse_factored_text(s).value()
