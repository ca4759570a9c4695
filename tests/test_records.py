"""The value classes: frozen records, equal within their class by fields."""

import pickle
from fractions import Fraction

import pytest

from multicover._record import Record
from multicover.cli import ReferenceTable
from multicover.contributions import FactorBundle
from multicover.exact import AlphaMonomial, FactoredRational
from multicover.fixedpoints import (
    Chain,
    Configuration,
    Contact,
    Family,
    FixedMapKind,
    MonoH,
    MonoK,
)
from multicover.localize import ConfigurationReport

F = Fraction
END = FixedMapKind(Contact.P0, 2, MonoK(1))
CHAIN = Chain((END,))
CONFIG = Configuration(2, CHAIN, CHAIN)
END_REPR = "FixedMapKind(contact=<Contact.P0: 0>, degree=2, shape=MonoK(k=1))"
CHAIN_REPR = f"Chain(steps=({END_REPR},))"
CONFIG_REPR = f"Configuration(cover_degree=2, chain_zero={CHAIN_REPR}, chain_infinity={CHAIN_REPR})"
RATIONAL_REPR = "FactoredRational(sign=-1, numerator_factors=(), denominator_factors=((2, 3), (5, 2)))"

# each value class: positional arguments, its fields in order, and the repr
# they give, which FixedMapKind.describe() and every breakdown line print
CASES = [
    (
        AlphaMonomial,
        (F(-9, 32), 8),
        ("coeff", "power"),
        "AlphaMonomial(coeff=Fraction(-9, 32), power=8)",
    ),
    (
        FactoredRational,
        (-1, (), ((2, 3), (5, 2))),
        ("sign", "numerator_factors", "denominator_factors"),
        RATIONAL_REPR,
    ),
    (Family, (1, 2), ("h", "k"), "Family(h=1, k=2)"),
    (MonoH, (1,), ("h",), "MonoH(h=1)"),
    (MonoK, (2,), ("k",), "MonoK(k=2)"),
    (FixedMapKind, (Contact.P0, 2, MonoK(1)), ("contact", "degree", "shape"), END_REPR),
    (Chain, ((END,),), ("steps",), CHAIN_REPR),
    (Configuration, (2, CHAIN, CHAIN), ("cover_degree", "chain_zero", "chain_infinity"), CONFIG_REPR),
    (
        FactorBundle,
        (AlphaMonomial(F(-11, 24), -7), AlphaMonomial(2, 2), F(1)),
        ("main", "auxiliary", "automorphism_scale"),
        "FactorBundle(main=AlphaMonomial(coeff=Fraction(-11, 24), power=-7), "
        "auxiliary=AlphaMonomial(coeff=Fraction(2, 1), power=2), automorphism_scale=Fraction(1, 1))",
    ),
    (
        ConfigurationReport,
        (CONFIG, (("base", AlphaMonomial(1)),), AlphaMonomial(F(-1, 32))),
        ("configuration", "per_factor_trace", "total"),
        f"ConfigurationReport(configuration={CONFIG_REPR}, "
        "per_factor_trace=(('base', AlphaMonomial(coeff=Fraction(1, 1), power=0)),), "
        "total=AlphaMonomial(coeff=Fraction(-1, 32), power=0))",
    ),
    (
        ReferenceTable,
        ({2: FactoredRational(-1, (), ((2, 3), (5, 2)))},),
        ("rows",),
        f"ReferenceTable(rows={{2: {RATIONAL_REPR}}})",
    ),
]
IDS = [cls.__name__ for cls, *_ in CASES]


def test_cases_cover_every_value_class():
    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(IDS)


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_repr_is_pinned(cls, args, fields, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_keyword_construction_matches_positional(cls, args, fields, text):
    value = cls(*args)
    assert cls(**dict(zip(fields, args))) == value
    assert list(vars(value)) == list(fields)


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_equal_values_hash_equal(cls, args, fields, text):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    if cls is ReferenceTable:  # its rows are a dict, which has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_fields_are_frozen(cls, args, fields, text):
    value = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_pickle_round_trip(cls, args, fields, text):
    value = cls(*args)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and repr(copy) == text


def test_equality_holds_only_within_a_class():
    assert MonoH(1) != MonoK(1) and not MonoH(1) == MonoK(1)
    assert Family(1, 2) != (1, 2)
    assert AlphaMonomial(3) != 3
    assert {MonoH(1), MonoK(1), MonoH(1)} == {MonoH(1), MonoK(1)}


def test_defaults_still_apply():
    assert AlphaMonomial(3) == AlphaMonomial(3, 0) == AlphaMonomial(coeff=3) == AlphaMonomial(F(3), power=0)
    assert AlphaMonomial(3).power == 0
    assert AlphaMonomial(0, 5).power == 0  # the zero monomial keeps power 0
