"""Scalar arithmetic and the factored text format."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicover import exact
from multicover.exact import (
    AlphaMonomial,
    FactoredFormatError,
    FactoredRational,
    alpha_flip,
    factorize,
    format_factored,
    is_prime,
    parse_factored,
)
from multicover.localize import multiple_cover_invariant
from oracles import assert_factorize_frees, assert_stage2_masks

F = Fraction


def mono(c, p=0):
    return AlphaMonomial(F(*c) if isinstance(c, tuple) else F(c), p)


# -- monomials ---------------------------------------------------------------

def test_mono_mul_direct_product():
    assert mono((3, 4), 8) * mono((2, 15), -4) == mono((1, 10), 4)


def test_mono_mul_identity():
    m = mono((-7, 3), -5)
    assert m * mono(1, 0) == m


def test_mono_mul_double_cover_chain():
    # base * (bubble over 0) * (bubble over infinity) for the double cover
    total = mono((-9, 32), 8) * mono((2, 15), -4) * mono((2, 15), -4)
    assert total == mono((-1, 200), 0)


def test_power_must_be_an_integer():
    # int() would truncate: a power of 2.9 would print as 1/2*a^2
    with pytest.raises(TypeError):
        AlphaMonomial(F(1, 2), 2.9)
    with pytest.raises(TypeError):
        AlphaMonomial(F(1, 2), F(2))
    assert AlphaMonomial(F(1, 2), True).power == 1


@pytest.mark.parametrize(
    "product",
    [lambda m: m * 0.5, lambda m: 0.5 * m, lambda m: m * "x"],
    ids=["mono-float", "float-mono", "mono-str"],
)
def test_mono_mul_refuses_other_types(product):
    # a TypeError, as the constructor gives for a float coefficient
    with pytest.raises(TypeError, match="'AlphaMonomial'"):
        product(mono((1, 2), 3))
    assert 2 * mono((1, 2), 3) == mono((1, 2), 3) * F(2) == mono(1, 3)


def test_zero_is_canonical():
    assert mono(0, 7) == mono(0, 0)
    assert mono(3, 2) * mono(0, -5) == mono(0)


small_fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=60
)
monomials = st.builds(AlphaMonomial, small_fractions, st.integers(-6, 6))


@given(monomials, monomials, monomials)
def test_mono_mul_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(monomials)
def test_unit_monomial(a):
    assert a * AlphaMonomial(F(1), 0) == a


# -- the flip ----------------------------------------------------------------

def test_flip_even_power_fixed():
    assert alpha_flip(mono((2, 15), -4)) == mono((2, 15), -4)


def test_flip_odd_power_negates():
    assert alpha_flip(mono((-2, 3), -1)) == mono((2, 3), -1)


@given(monomials, st.integers(-6, 6).flatmap(
    lambda p: st.builds(AlphaMonomial, small_fractions, st.just(p))
))
def test_flip_is_homomorphism_and_involution(a, b):
    assert alpha_flip(alpha_flip(a)) == a
    assert alpha_flip(a * b) == alpha_flip(a) * alpha_flip(b)


# -- primes and factorization ------------------------------------------------

def test_is_prime_basics():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(49789008475889939)
    assert not is_prime(11740987 * 49789008475889939)
    assert not any(is_prime(n) for n in (-7, 0, 1))


def test_strong_pseudoprime_to_bases_through_31_refused():
    # 3825123056546413051 = 149491 * 747451 * 34233211 passes the strong
    # test to every prime base from 2 to 31; base 37 refuses it, and so
    # must is_prime, whose trial division stops at 281
    n = 3825123056546413051
    assert 149491 * 747451 * 34233211 == n
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def passes(base):
        x = pow(base, d, n)
        return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))

    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert [base for base in bases if not passes(base)] == [37]
    assert not is_prime(n)


def test_factorize_large_square():
    n = (11740987 * 49789008475889939) ** 2
    assert factorize(n) == [(11740987, 2), (49789008475889939, 2)]


def test_factorize_mixed():
    assert factorize(2**44 * 11**2) == [(2, 44), (11, 2)]
    assert factorize(1) == []
    with pytest.raises(ValueError, match="positive"):
        factorize(0)


# no floating point: factorize(6.0) would give [(2, 1), (3.0, 1)], is_prime(2.0)
# True, and AlphaMonomial(0.1) would store 3602879701896397/36028797018963968
@pytest.mark.parametrize(
    "fn, x",
    [
        (factorize, 6.0),
        (is_prime, 2.0),
        (is_prime, 7.5),
        (AlphaMonomial, 0.1),
        (FactoredRational.from_rational, 0.5),
        (format_factored, 0.5),
    ],
)
def test_floats_rejected(fn, x):
    with pytest.raises(TypeError, match="float"):
        fn(x)


def test_factorize_composite_powers():
    p, q = 10007, 1000003
    assert factorize(p**6 * q**6) == [(p, 6), (q, 6)]
    assert factorize(3**35) == [(3, 35)]
    assert factorize((2**61 - 1) ** 4) == [(2**61 - 1, 4)]


# Suyama curves have group orders divisible by 12, so for primes below
# ~24000 stage 1 kills the point modulo every prime of n: the first two
# inputs, and the seeded products of two and of three primes in
# (10^4, 3*10^4), terminate only where a curve's points die in different
# blocks of stage 1.  65537*1000003 gives n on most curves, and the last
# three are cofactors that the factored output of N_8, N_10 and N_11 has
# to split.
_SMALL_PRIMES = [p for p in range(10_001, 30_000, 2) if is_prime(p)]
_SEEDED_RNG = random.Random(42)
_SEEDED = [dict.fromkeys(_SEEDED_RNG.sample(_SMALL_PRIMES, k), 1) for k in (2, 2, 2, 3, 3, 3)]


@pytest.mark.parametrize(
    "primes",
    [
        {10007: 1, 10009: 1},
        {10007: 1, 10009: 1, 10037: 1, 10039: 1, 10061: 1},
        {65537: 1, 1000003: 1},
        {11740987: 1, 49789008475889939: 1},
        # numerator of N_10
        {19: 2, 61: 2, 79377601: 2, 58524074773: 2, 70797734099: 2},
        # numerator of N_11
        {17: 2, 438938983141369: 2, 180676454678820675709: 2},
        *_SEEDED,
    ],
    ids=["10007*10009", "five-near-10^4", "65537*1000003", "d8-root", "d10", "d11"]
    + [f"seeded-{len(primes)}-primes-{i}" for i, primes in enumerate(_SEEDED)],
)
def test_factorize_terminates_exactly(primes):
    assert factorize(math.prod(p**e for p, e in primes.items())) == sorted(primes.items())


def test_segment_sieve_is_exact_across_its_range():
    reference = exact._sieve(200_000)
    for lo, hi in [(2, 120_000), (30_000, 200_000)] + [
        (p * p - 40, p * p + 40) for p in (7, 11, 97, 443)
    ]:
        assert exact._segment(lo, hi) == reference[lo:hi], (lo, hi)
    # Stage 2 sieves below 100*B1 + 2*D: its last giant step m*D is below
    # 100*B1 + D and its baby steps reach D/2 past it.  The sieve by
    # _TRIAL_PRIMES is exact only below 10007**2.
    b1 = max(b1 for b1, _ in exact._ECM_LEVELS)
    assert 100 * b1 + exact._ECM_D // 2 < 10007**2
    top = 100 * b1 + 2 * exact._ECM_D
    assert top <= 10007**2
    window = exact._segment(top - 30_000, top)
    assert list(window) == [is_prime(q) for q in range(top - 30_000, top)]


def test_affine_inverts_every_z_with_one_inversion():
    p, q = 1000003, 49789008475889939
    n = p * q
    rng = random.Random(3)
    points = [(rng.randrange(n), rng.randrange(1, p) * rng.randrange(1, q)) for _ in range(40)]
    assert exact._affine(points, n) == [x * pow(z, -1, n) % n for x, z in points]
    points[17] = (points[17][0], 5 * p)
    assert math.gcd(exact._affine(points, n), n) % p == 0


# The first curve _ecm draws for this n (sigma = 363585633832183180715 from
# random.Random(n)) at B1 = 2000 finds no factor in stage 1 and STAGE2_P in
# stage 2.
STAGE2_N = 10189369859 * 821626242989
STAGE2_P = 10189369859


def test_stage2_finds_what_stage1_misses(monkeypatch):
    monkeypatch.setattr(exact, "_ECM_LEVELS", ((2000, 1),))
    assert exact._ecm(STAGE2_N) == STAGE2_P
    monkeypatch.setattr(exact, "_stage2", lambda *args: 1)
    assert exact._ecm(STAGE2_N) is None


def test_stage2_is_the_product_over_prime_pairs():
    # every pair m*D +- j holding a prime, each baby step by its own ladder;
    # B1 = 2000 has 87 giant steps, 11000 has 474 in blocks of 400 and 74
    n, d = STAGE2_N, exact._ECM_D
    rng = random.Random(5)
    x, a24 = rng.randrange(n), rng.randrange(n)

    def affine(k, px):
        xk, zk = exact._ladder(k, px, a24, n)
        return xk * pow(zk, -1, n) % n

    baby = {j: affine(j, x) for j in range(1, d // 2, 2)}
    step = affine(d, x)
    for b1 in (2000, 11000):
        prime, expected = exact._sieve(100 * b1 + 2 * d), 1
        for m in range(max(b1 // d, 1), 100 * b1 // d + 2):
            gx = affine(m, step)
            for j, bx in baby.items():
                if prime[m * d + j] or prime[m * d - j]:
                    expected = expected * (gx - bx) % n
        assert exact._stage2(x, a24, exact._stage2_masks(b1), n) == expected, b1
    assert len(exact._ECM_BABY_J) == 240


def test_stage2_masks_match_a_plain_sieve():
    assert_stage2_masks([2000, 11000, 50000])


def test_stage2_sieves_once_per_level(monkeypatch):
    # three curves at one B1 share one sieve of their stage-2 range: none of
    # the first 25 curves splits d = 11's numerator root, so all three run;
    # the sieve belongs to the call, so a second call sieves again
    root = 438938983141369 * 180676454678820675709
    calls = []
    segment = exact._segment
    monkeypatch.setattr(exact, "_segment", lambda lo, hi: calls.append(lo) or segment(lo, hi))
    monkeypatch.setattr(exact, "_ECM_LEVELS", ((2000, 3),))
    assert exact._ecm(root) is None
    assert len(calls) == 1
    assert exact._ecm(root) is None
    assert len(calls) == 2


def test_stage1_split_builds_no_stage2_masks(monkeypatch):
    # the first curve at B1 = 2000 splits 65537 * 1000003 in stage 1, so the
    # level's masks, built when a curve first reaches stage 2, are never built
    calls = []
    masks = exact._stage2_masks
    monkeypatch.setattr(exact, "_stage2_masks", lambda b1: calls.append(b1) or masks(b1))
    assert exact._ecm(65537 * 1000003) == 65537
    assert calls == []


def test_ecm_frees_its_level_tables():
    assert_factorize_frees([11000])


# sha256 of the factored text of N_2..N_13, one line per degree; it pins the
# text of d = 10..13 where the sympy comparison below is skipped
FACTORED_DIGEST = "2e6b7b49677515956e347154b533ec5ba9e6cbc08bfb397e28204da21c196a04"


def test_factored_invariants_digest():
    text = "\n".join(format_factored(multiple_cover_invariant(d)) for d in range(2, 14))
    assert hashlib.sha256(text.encode()).hexdigest() == FACTORED_DIGEST


def test_factorize_matches_sympy_on_invariants():
    sympy = pytest.importorskip("sympy")
    for d in range(2, 14):
        q = multiple_cover_invariant(d)
        for n in (abs(q.numerator), q.denominator):
            assert factorize(n) == sorted(sympy.factorint(n).items()), (d, n)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    sample = [rng.randrange(2, 2 ** rng.randrange(2, 81)) | 1 for _ in range(3000)]
    assert sum(map(is_prime, sample)) > 100
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n


# -- factored text format ----------------------------------------------------

def test_format_double_cover_value():
    assert format_factored(F(-1, 200)) == "-1/(2^3*5^2)"


def test_format_unity_and_integers():
    assert format_factored(F(1)) == "1"
    assert format_factored(F(-1)) == "-1"
    assert format_factored(F(360)) == "2^3*3^2*5"
    assert format_factored(F(2, 3)) == "2/(3)"


def test_format_multi_factor_numerator_parenthesized():
    assert format_factored(F(-46225, 3**13 * 49)) == "-(5^2*43^2)/(3^13*7^2)"


def test_format_rejects_zero():
    with pytest.raises(ValueError):
        format_factored(F(0))


def test_parse_double_cover_value():
    assert parse_factored("-1/(2^3*5^2)") == F(-1, 200)


def test_parse_unity():
    assert parse_factored("1") == F(1)
    assert parse_factored("-1") == F(-1)


def test_parse_degree_three_value_against_multiplied_out():
    # independent multiply-out of the prime powers
    expected = Fraction(-(5**2 * 43**2), 3**13 * 7**2)
    assert parse_factored("-(5^2*43^2)/(3^13*7^2)") == expected


def test_parse_accepts_unparenthesized_numerator():
    assert parse_factored("5^2*43^2/(3^13*7^2)") == Fraction(5**2 * 43**2, 3**13 * 7**2)


def test_parse_accepts_noncanonical_forms():
    # the grammar admits an explicit exponent 1 and a parenthesized
    # one-factor numerator; format_factored writes neither
    for text, value, canonical in (("2^1", 2, "2"), ("(2)/(3)", Fraction(2, 3), "2/(3)")):
        assert parse_factored(text) == value
        assert format_factored(value) == canonical


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "malformed"),
        ("-1/2^3", "parenthesized"),
        ("4/(3)", "not prime"),
        ("3^0", "exponent"),
        ("5*3", "out of order"),
        ("3*3", "out of order"),
        ("2/(2)", "both"),
        ("1/(1) ", "malformed"),
        ("(2^3)", "parentheses"),
        ("2^x", "exponent"),
        ("02", "base"),
        ("-1/(٢^3*5^2)", "base"),
        ("２", "base"),
        ("2²", "base"),
        ("1/()", "empty product"),
        pytest.param("7" * 5000, "5000 digits", id="7x5000-digits"),
    ],
)
def test_parse_errors_name_offender(text, fragment):
    with pytest.raises(FactoredFormatError) as err:
        parse_factored(text)
    assert fragment in str(err.value)


def test_factored_rational_invariants():
    with pytest.raises(ValueError, match="sign"):
        FactoredRational(0, (), ())
    with pytest.raises(ValueError):
        FactoredRational(1, ((4, 1),), ())
    with pytest.raises(ValueError):
        FactoredRational(1, ((3, 1), (2, 1)), ())
    with pytest.raises(ValueError):
        FactoredRational(1, ((2, 1),), ((2, 2),))


@pytest.mark.parametrize(
    "num, den, fragment",
    [
        (((2, 1.5),), (), "numerator factor 2^1.5"),
        (((7.0, 1),), (), "numerator factor 7.0^1"),
        ((), ((2, 1), (5, F(2))), "denominator factor 5^Fraction(2, 1)"),
    ],
    ids=["float-exponent", "float-base", "fraction-exponent"],
)
def test_factored_rational_needs_integer_factors(num, den, fragment):
    # a float exponent would print outside the grammar ('2^1.5'), and a
    # float base passes is_prime, prints as '7.0' and breaks value()
    with pytest.raises(ValueError, match="is not an integer power") as err:
        FactoredRational(1, num, den)
    assert fragment in str(err.value)


_POOL_SMALL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 97]
_POOL_LARGE = [1009, 65537, 1000003, 1000000007, 122439620123, 49789008475889939]


@st.composite
def tractable_rationals(draw):
    """Nonzero rationals whose prime support we can actually factor."""
    pool = draw(st.permutations(_POOL_SMALL + _POOL_LARGE))
    split = draw(st.integers(0, len(pool)))
    num_primes = draw(st.lists(st.sampled_from(pool[:split] or [2]), max_size=4, unique=True)) if split else []
    den_primes = draw(st.lists(st.sampled_from(pool[split:] or [3]), max_size=4, unique=True)) if split < len(pool) else []
    num = den = 1
    for p in num_primes:
        num *= p ** draw(st.integers(1, 4))
    for p in den_primes:
        den *= p ** draw(st.integers(1, 4))
    sign = draw(st.sampled_from([1, -1]))
    value = Fraction(sign * num, den)
    return value if value.numerator < 2**256 and value.denominator < 2**256 else Fraction(sign)


@settings(max_examples=200, deadline=None)
@given(tractable_rationals())
def test_round_trip(q):
    assert parse_factored(format_factored(q)) == q


@settings(max_examples=50, deadline=None)
@given(tractable_rationals())
def test_value_round_trips_through_factored_form(q):
    f = FactoredRational.from_rational(q)
    assert f.value() == q
    assert math.prod(p**e for p, e in f.numerator_factors) == abs(q.numerator)
