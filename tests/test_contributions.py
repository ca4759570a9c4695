"""The closed-form factor tables and node smoothing."""

from fractions import Fraction

import pytest

from multicover.contributions import (
    DegenerateNodeError,
    _factors,
    _family_sum,
    base_contribution,
    end_contribution,
    node_smoothing,
    psi_integral,
    ruled_contribution,
    step_factors,
)
from multicover.exact import AlphaMonomial
from multicover.fixedpoints import (
    Contact,
    Family,
    FixedMapKind,
    MonoH,
    MonoK,
    _step_candidates,
    base_tangent_weight,
    source_tangent_weight,
)
from oracles import all_kinds, family_sum_loop, mono, step_parts

F = Fraction
ONE = AlphaMonomial(1)


# -- base component ------------------------------------------------------------

def test_base_double_cover():
    assert base_contribution(2) == mono((-9, 32), 8)


def test_base_degree_one():
    # direct evaluation of the closed form; below 1 there is no base component
    assert base_contribution(1) == mono(4, 2)
    assert base_tangent_weight(1) == -1
    for d in (0, -3):
        for evaluate in (base_contribution, base_tangent_weight):
            with pytest.raises(ValueError, match=f">= 1, got {d}$"):
                evaluate(d)


def test_base_degree_three():
    expected = F(1, 3) * F(6 * 720, 3**9) ** 2
    assert base_contribution(3) == AlphaMonomial(expected, 14)


def test_base_power_and_sign():
    for d in range(1, 13):
        b = base_contribution(d)
        assert b.power == 6 * d - 4
        assert (b.coeff > 0) == ((-1) ** (3 * d - 1) > 0)


# -- ruled rows ----------------------------------------------------------------

def test_ruled_monok_value():
    # d - k = 1 pattern shared by the degree-2 short map
    main, tangent, scale = step_parts(ruled_contribution(FixedMapKind(Contact.P0, 3, MonoK(2))))
    assert main == mono((-1, 2), -4)
    assert tangent == mono(-1, 2)
    assert scale == 1


def test_ruled_monoh_value():
    main, tangent, scale = step_parts(ruled_contribution(FixedMapKind(Contact.P0, 4, MonoH(3))))
    assert main == mono((1, 8), -4)
    assert tangent == mono(2, 2)
    assert scale == 1


def test_ruled_family_psi_coefficient():
    main, tangent, scale = step_parts(ruled_contribution(FixedMapKind(Contact.P0, 4, Family(2, 3))))
    # sum over i=1: 1/(2-1) + 1/(3-1) + 1/(4-1) = 11/6
    assert main == AlphaMonomial(-F(1, 4) * F(11, 6), -7)
    assert tangent == mono(2, 2)
    assert scale == F(1, 1)


def test_family_sum_closed_form_matches_loop():
    # every admitted Family(h, (d+h)/2) row with d < 90; past the frozen
    # values (d <= 13) this is the one check on sigma
    rows = [(d, h, (d + h) // 2) for d in range(2, 90) for h in range(d % 2 or 2, d, 2)]
    assert len(rows) == 1936
    for d, h, k in rows:
        assert F(*_family_sum(d, h, k)) == family_sum_loop(d, h, k), (d, h, k)


def test_ruled_monok_scale():
    main, _, scale = step_parts(ruled_contribution(FixedMapKind(Contact.P0, 4, MonoK(2))))
    assert scale == F(1, 2)
    # (-1/2) * 1/(2! 4!) * (1/2)^(-7)
    assert main == mono((-4, 3), -7)


@pytest.mark.parametrize(
    "d, shape", [(2, MonoK(1)), (2, MonoH(1)), (3, Family(1, 2))], ids=["MonoK", "MonoH", "Family"]
)
def test_ruled_refuses_end_kind(d, shape):
    # an end map has no outgoing node, so it has no ruled factors
    kind = FixedMapKind(Contact.P0, d, shape)
    with pytest.raises(ValueError) as excinfo:
        ruled_contribution(kind)
    assert str(excinfo.value) == f"{kind.describe()} is an end-bubble map"


def test_p2_rows_keep_positive_divisor_tangent():
    for shape in (MonoH(2), MonoK(2)):
        assert dict(ruled_contribution(FixedMapKind(Contact.P2, 4, shape)))["divisor_tangent"] == mono(2, 2)


# -- end rows --------------------------------------------------------------------

def test_end_short_maps_double_cover():
    assert dict(end_contribution(FixedMapKind(Contact.P0, 2, MonoK(1))))["main"] == mono((-1, 2), -3)
    assert dict(end_contribution(FixedMapKind(Contact.P0, 2, MonoH(1))))["main"] == mono((1, 2), -3)
    assert dict(end_contribution(FixedMapKind(Contact.P1, 2, MonoK(1))))["main"] == mono((-1, 2), -3)


def test_end_p2_monok_value():
    main, _, scale = step_parts(end_contribution(FixedMapKind(Contact.P2, 3, MonoK(1))))
    assert main == mono((2, 3), -6)
    assert scale == F(1, 2)


def test_end_p2_monoh_value():
    assert dict(end_contribution(FixedMapKind(Contact.P2, 2, MonoH(1))))["main"] == mono((-1, 2), -3)


def test_end_family_is_pure_psi():
    main, _, scale = step_parts(end_contribution(FixedMapKind(Contact.P0, 3, Family(1, 2))))
    assert main == mono((1, 4), -6)  # minus the (-1)^(k+1) prefactor
    assert scale == F(1, 1)
    _, _, deeper = step_parts(end_contribution(FixedMapKind(Contact.P1, 5, Family(1, 3))))
    assert deeper == F(1, 2)


def test_end_rejects_ruled_kind():
    with pytest.raises(ValueError):
        end_contribution(FixedMapKind(Contact.P0, 4, MonoK(2)))


def test_ruled_and_end_contribution_are_step_factors():
    # each returns step_factors(kind) itself, and refuses the other kind by name
    for kind in all_kinds(8):
        if kind.is_end_bubble:
            accept, refuse, text = end_contribution, ruled_contribution, "an end-bubble map"
        else:
            accept, refuse, text = ruled_contribution, end_contribution, "a ruled-bubble map"
        assert accept(kind) == step_factors(kind), kind
        with pytest.raises(ValueError) as excinfo:
            refuse(kind)
        assert str(excinfo.value) == f"{kind.describe()} is {text}"


@pytest.mark.parametrize(
    "evaluate, contact, d, shape, main, auxiliary, scale",
    [
        (ruled_contribution, Contact.P1, 6, Family(2, 4), mono((736, 135), -13), mono(2, 2), F(1, 2)),
        (ruled_contribution, Contact.P1, 5, MonoH(2), mono((-729, 512), -10), mono(2, 2), F(1, 3)),
        (ruled_contribution, Contact.P1, 5, MonoK(3), mono((4, 3), -7), mono(-1, 2), F(1, 2)),
        (ruled_contribution, Contact.P2, 5, MonoH(3), mono((-4, 3), -7), mono(2, 2), F(1, 2)),
        (ruled_contribution, Contact.P2, 5, MonoK(3), mono((4, 3), -7), mono(2, 2), F(1, 2)),
        (end_contribution, Contact.P1, 4, MonoH(1), mono((-243, 128), -9), ONE, F(1, 3)),
        (end_contribution, Contact.P1, 5, Family(1, 3), mono((-16, 9), -12), ONE, F(1, 2)),
    ],
    ids=[
        "ruled-P1-Family",
        "ruled-P1-MonoH",
        "ruled-P1-MonoK",
        "ruled-P2-MonoH",
        "ruled-P2-MonoK",
        "end-P1-MonoH",
        "end-P1-Family",
    ],
)
def test_row_bundle_pins(evaluate, contact, d, shape, main, auxiliary, scale):
    assert step_parts(evaluate(FixedMapKind(contact, d, shape))) == (main, auxiliary, scale)


def test_main_power_matches_tabulated_exponent():
    for kind in all_kinds(8):
        d = kind.degree
        if kind.is_end_bubble:
            expected = 3 - 3 * d
            main = step_parts(end_contribution(kind))[0]
        else:
            s = kind.shape
            exp = s.k if isinstance(s, MonoK) else s.h
            expected = 3 * exp - 3 * d - 1
            main = step_parts(ruled_contribution(kind))[0]
        assert main.power == expected, kind.describe()


# -- psi integral ----------------------------------------------------------------

def test_psi_integral_values():
    assert psi_integral(3, 1) == F(-1, 2)
    assert psi_integral(2, 1) == F(-1)
    assert psi_integral(5, 3) == F(-1, 2)


def test_family_rows_integrate_psi_by_psi_integral():
    # the state sum reads each family row's psi entry from _factors' integers
    families = [
        FixedMapKind(contact, m, shape)
        for m in range(2, 40)
        for contact in Contact
        for shape, _, _ in _step_candidates(contact, m)
        if isinstance(shape, Family)
    ]
    assert len(families) == 722
    for kind in families:
        factors = _factors(kind.contact, kind.degree, kind.shape)
        (n, r, e), = [entry for label, *entry in factors if label == "psi_integral"]
        assert (F(n, r), e) == (psi_integral(kind.degree, kind.shape.h), 0), kind


def test_psi_integral_negative_and_boundary():
    for d in range(2, 10):
        for h in range(1, d):
            v = psi_integral(d, h)
            assert v < 0
            assert (v == -1) == (h == d - 1)
    with pytest.raises(ValueError):
        psi_integral(3, 3)
    with pytest.raises(ValueError):
        psi_integral(4, 0)


# -- node smoothing ----------------------------------------------------------------

def test_node_smoothing_double_cover_values():
    base = F(-1, 2)
    short_k = FixedMapKind(Contact.P0, 2, MonoK(1))
    short_h = FixedMapKind(Contact.P0, 2, MonoH(1))
    w_k = source_tangent_weight(short_k)
    w_h = source_tangent_weight(short_h)
    assert node_smoothing(base, w_k) == mono((-2, 3), -1)
    assert node_smoothing(base, w_h) == mono((-2, 5), -1)


def test_node_smoothing_rejects_zero_weight():
    with pytest.raises(DegenerateNodeError):
        node_smoothing(F(1, 2), F(-1, 2))


def test_double_cover_side_assembly():
    # smoothing x end factor, summed over the two short maps
    base = F(-1, 2)
    total = F(0)
    for shape, main in ((MonoK(1), mono((-1, 2), -3)), (MonoH(1), mono((1, 2), -3))):
        kind = FixedMapKind(Contact.P0, 2, shape)
        w = source_tangent_weight(kind)
        assert dict(end_contribution(kind))["main"] == main
        term = node_smoothing(base, w) * main
        assert term.power == -4
        total += term.coeff
    assert total == F(2, 15)
