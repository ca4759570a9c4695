"""Fixed-map classification, weights, transitions, and enumeration."""

import hashlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import multicover
from multicover.fixedpoints import (
    Chain,
    Configuration,
    Contact,
    Family,
    FixedMapKind,
    InvalidKindError,
    MonoH,
    MonoK,
    UnsupportedDegreeError,
    _step_candidates,
    base_tangent_weight,
    enumerate_chains,
    enumerate_configurations,
    source_tangent_weight,
    transition,
    v4_weights,
)
from oracles import all_kinds, assert_chain_digests, assert_weights_agree, walk_rows

F = Fraction
SRC = str(Path(multicover.__file__).resolve().parents[1])

# -- weight table ------------------------------------------------------------

def test_v4_weights_family_row():
    w = v4_weights(FixedMapKind(Contact.P0, 3, Family(1, 2)))
    assert w == (F(3), F(1), F(2), F(0))


def test_v4_weights_monok_row():
    w = v4_weights(FixedMapKind(Contact.P0, 2, MonoK(1)))
    assert w == (F(2), F(0), F(1), F(0))


def test_v4_weights_monoh_at_p2():
    w = v4_weights(FixedMapKind(Contact.P2, 2, MonoH(1)))
    assert w == (F(-2), F(-1), F(-3), F(0))


# sha256 over the lines f"{kind.describe()}\t{w0} {w1} {w2} {w3}\n" of
# v4_weights, for every row of _step_candidates with m = 2..39, in listing order
WEIGHTS_DIGEST = "1605882f26a7f1807409dbac287d9d9a7df9bf4a49becce25141d01c4a5177bf"


def test_weight_table_digest():
    lines = "".join(
        f"{fk.describe()}\t{' '.join(map(str, v4_weights(fk)))}\n"
        for m in range(2, 40)
        for contact in Contact
        for fk, _, _ in _step_candidates(contact, m)
    )
    assert lines.count("\n") == 4372
    assert hashlib.sha256(lines.encode()).hexdigest() == WEIGHTS_DIGEST


def test_family_weights_reflect_exponent_relation():
    # first + second tabulated weight equals twice the third
    for fk in all_kinds(9):
        if isinstance(fk.shape, Family):
            w = v4_weights(fk)
            assert w[0] + w[1] == 2 * w[2]


# -- source tangent weights ----------------------------------------------------

def test_family_outgoing_weight():
    fk = FixedMapKind(Contact.P0, 5, Family(3, 4))
    assert -source_tangent_weight(fk) == F(1, 5 - 4)


def test_base_weight_orientation():
    # pinned by the degree-2 smoothing factors -2/(3a) and -2/(5a)
    w = base_tangent_weight(2)
    assert w == F(-1, 2)
    assert w + source_tangent_weight(FixedMapKind(Contact.P0, 2, MonoK(1))) == F(-3, 2)
    assert w + source_tangent_weight(FixedMapKind(Contact.P0, 2, MonoH(1))) == F(-5, 2)


def test_action_speed_matches_weight_table():
    # the speed column of _ROWS, the negated source_tangent_weight at the
    # outgoing node, against the weight table: w0 / m and (w0 - w_slot) / (m - e)
    assert_weights_agree(range(2, 40))


# -- transitions ---------------------------------------------------------------

@pytest.mark.parametrize(
    "contact, shape, expected",
    [
        (Contact.P0, Family(2, 3), (Contact.P1, 2)),
        (Contact.P0, MonoH(3), (Contact.P1, 3)),
        (Contact.P0, MonoK(2), (Contact.P2, 2)),
        (Contact.P1, Family(2, 3), (Contact.P0, 2)),
        (Contact.P1, MonoH(3), (Contact.P0, 3)),
        (Contact.P1, MonoK(3), (Contact.P2, 3)),
        (Contact.P2, MonoH(2), (Contact.P0, 2)),
        (Contact.P2, MonoK(3), (Contact.P1, 3)),
    ],
)
def test_transition_table(contact, shape, expected):
    assert transition(FixedMapKind(contact, 4, shape)) == expected


def test_end_maps_have_no_transition():
    assert transition(FixedMapKind(Contact.P0, 2, MonoH(1))) is None
    assert transition(FixedMapKind(Contact.P0, 3, Family(1, 2))) is None


def test_step_candidates_carry_weights_and_next_state():
    # each row holds its kind's incoming node weight as a reduced pair, never
    # zero, and its next state the kind's transition and outgoing weight, or
    # None on an end map
    for m in range(2, 9):
        for contact in Contact:
            for fk, w_in, nxt in _step_candidates(contact, m):
                assert F(*w_in) == source_tangent_weight(fk)
                assert F(*w_in).as_integer_ratio() == w_in
                assert w_in[0] != 0
                if fk.is_end_bubble:
                    assert nxt is None
                else:
                    assert nxt == (*transition(fk), (-F(*w_in)).as_integer_ratio())


@pytest.mark.parametrize("d", range(2, 10))
def test_chains_drop_only_zero_smoothing_weight(d):
    # the walker drops a row exactly when its node weight cancels the
    # incoming one; without that rule the walk finds more chains from d = 3,
    # each of which the Chain constructor refuses
    chains = enumerate_chains(d)
    assert chains == walk_rows(d, prune=True)
    unpruned = walk_rows(d, prune=False)
    kept = {c.steps: None for c in chains}
    assert [steps for steps in unpruned if steps in kept] == list(kept)
    for steps in set(unpruned) - kept.keys():
        with pytest.raises(ValueError, match=r"node weights \S+ and \S+ sum to zero$"):
            Chain(steps)
    assert len(unpruned) > len(chains) if d > 2 else len(unpruned) == len(chains)


# -- kind validation -----------------------------------------------------------

def test_family_needs_exponent_relation():
    with pytest.raises(InvalidKindError):
        FixedMapKind(Contact.P0, 4, Family(1, 2))  # 4 + 1 != 2*2


def test_family_rejected_at_p2():
    with pytest.raises(InvalidKindError):
        FixedMapKind(Contact.P2, 3, Family(1, 2))


def test_monoh_parity_rule_at_p0_p1():
    with pytest.raises(InvalidKindError):
        FixedMapKind(Contact.P0, 3, MonoH(1))  # h = d (mod 2): family boundary
    FixedMapKind(Contact.P2, 3, MonoH(1))  # no parity rule at P2


def test_short_monok_rows_limited_to_degree_two():
    with pytest.raises(InvalidKindError):
        FixedMapKind(Contact.P0, 3, MonoK(1))
    with pytest.raises(InvalidKindError):
        FixedMapKind(Contact.P1, 4, MonoK(1))
    FixedMapKind(Contact.P0, 2, MonoK(1))
    FixedMapKind(Contact.P2, 5, MonoK(1))


def test_kind_degree_and_shape_checked():
    with pytest.raises(InvalidKindError, match="degree 1 must be >= 2"):
        FixedMapKind(Contact.P0, 1, MonoK(1))
    with pytest.raises(InvalidKindError, match="unknown shape"):
        FixedMapKind(Contact.P0, 3, "MonoK")


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: FixedMapKind(Contact.P0, 3.0, MonoK(2)),
            "degree must be an integer, got 3.0 (float)",
        ),
        (lambda: FixedMapKind(Contact.P0, 3, MonoK(2.0)), "k must be an integer, got 2.0 (float)"),
        (lambda: FixedMapKind(Contact.P2, 4, MonoH("3")), "h must be an integer, got '3' (str)"),
        (lambda: FixedMapKind("P0", 3, MonoK(2)), "contact must be a Contact, got 'P0' (str)"),
        (
            lambda: Configuration(2.0, *enumerate_chains(2)),
            "degree must be an integer, got 2.0 (float)",
        ),
    ],
    ids=["degree", "k", "h", "contact", "configuration"],
)
def test_kinds_and_configurations_refuse_wrong_types(build, message):
    # the value and its type are named when the object is built, not on first use
    with pytest.raises(TypeError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_end_flag_follows_outgoing_exponent():
    assert FixedMapKind(Contact.P0, 4, MonoH(1)).is_end_bubble
    assert not FixedMapKind(Contact.P0, 4, MonoH(3)).is_end_bubble


def test_listing_agrees_with_validation():
    # a shape is a kind exactly when _step_candidates lists it, in the
    # published row order: the families, then MonoH, then MonoK, each by
    # ascending exponent
    for m in range(2, 13):
        for contact in Contact:
            shapes = [Family(h, k) for h in range(m + 1) for k in range(m + 1)]
            shapes += [MonoH(h) for h in range(m + 1)] + [MonoK(k) for k in range(m + 1)]
            admitted = []
            for shape in shapes:
                try:
                    admitted.append(FixedMapKind(contact, m, shape))
                except InvalidKindError:
                    pass
            assert [fk for fk, _, _ in _step_candidates(contact, m)] == admitted


# -- chains and configurations ---------------------------------------------------

def test_chain_must_start_at_p0():
    first = r"^step P1:d=2:MonoH\(h=1\):end does not follow the base$"
    with pytest.raises(ValueError, match=first):
        Chain((FixedMapKind(Contact.P1, 2, MonoH(1)),))
    with pytest.raises(ValueError, match="^a chain has at least one bubble$"):
        Chain(())


def test_chain_transition_consistency():
    good = Chain((FixedMapKind(Contact.P0, 4, MonoK(2)), FixedMapKind(Contact.P2, 2, MonoH(1))))
    assert good.degree == 4
    after = r" does not follow P0:d=4:MonoK\(k=2\):ruled$"
    with pytest.raises(ValueError, match=r"^step P1:d=2:MonoH\(h=1\):end" + after):
        Chain((FixedMapKind(Contact.P0, 4, MonoK(2)), FixedMapKind(Contact.P1, 2, MonoH(1))))
    with pytest.raises(ValueError, match=r"^step P2:d=3:MonoH\(h=1\):end" + after):
        Chain((FixedMapKind(Contact.P0, 4, MonoK(2)), FixedMapKind(Contact.P2, 3, MonoH(1))))


def test_end_bubble_only_last():
    # an end map has no transition, so no step can follow it
    with pytest.raises(
        ValueError,
        match=r"^step P2:d=2:MonoH\(h=1\):end does not follow P0:d=2:MonoK\(k=1\):end$",
    ):
        Chain((FixedMapKind(Contact.P0, 2, MonoK(1)), FixedMapKind(Contact.P2, 2, MonoH(1))))


def test_chain_must_end_with_end_bubble():
    with pytest.raises(ValueError, match="^the last step must be an end bubble$"):
        Chain((FixedMapKind(Contact.P0, 4, MonoK(2)),))


def test_chain_pickles_across_hash_seeds():
    # a chain's hash follows the string-hash seed (its enum names hash by
    # string); one unpickled from a process with another seed must hash anew
    # to be found in this process's dicts
    chain = enumerate_chains(4)[-1]
    code = (
        "import pickle, sys\n"
        "from multicover.fixedpoints import enumerate_chains\n"
        "chain = enumerate_chains(4)[-1]\n"
        "sys.stdout.buffer.write(pickle.dumps((chain, hash(chain))))\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    data = subprocess.run(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, check=True, timeout=120
    ).stdout
    copy, child_hash = pickle.loads(data)
    assert child_hash != hash(chain)  # the enum names hash by string, so the seed shows
    assert copy == chain and copy is not chain
    assert hash(copy) == hash(chain)
    assert {chain: "found"}[copy] == "found"


def test_configuration_degree_check():
    c2 = enumerate_chains(2)[0]
    c3 = enumerate_chains(3)[0]
    with pytest.raises(ValueError, match=r"^chain degrees 2 and 3 must equal the cover degree 2$"):
        Configuration(2, c2, c3)


def test_degree_two_enumeration():
    chains = enumerate_chains(2)
    assert len(chains) == 2
    assert all(len(c.steps) == 1 for c in chains)
    shapes = sorted(type(c.steps[0].shape).__name__ for c in chains)
    assert shapes == ["MonoH", "MonoK"]
    assert len(enumerate_configurations(2)) == 4


def test_degree_three_chain_list_frozen():
    # regression: validated through the exact degree-3 invariant
    got = [c.describe() for c in enumerate_chains(3)]
    assert got == [
        "P0:d=3:Family(h=1,k=2):end",
        "P0:d=3:MonoH(h=2):ruled -> P1:d=2:MonoH(h=1):end",
        "P0:d=3:MonoH(h=2):ruled -> P1:d=2:MonoK(k=1):end",
        "P0:d=3:MonoK(k=2):ruled -> P2:d=2:MonoH(h=1):end",
    ]


def test_family_boundaries_are_excluded():
    # the broken limit MonoK(3,2) -> P2:MonoK(2,1) never appears
    for c in enumerate_chains(3):
        names = [s.describe() for s in c.steps]
        assert "P2:d=2:MonoK(k=1):end" not in names or "MonoK(k=2)" not in names[0]
    # but the same tail is fine behind a non-boundary predecessor
    found = [
        c for c in enumerate_chains(4)
        if c.steps[0].shape == MonoK(2) and c.steps[-1].shape == MonoK(1)
    ]
    assert len(found) == 1


def published_order_key(chain):
    """The key whose sort order the chain walk and --breakdown publish:
    number of steps, then per step (contact, shape rank, degree, outgoing
    exponent) with the families first, then MonoH, then MonoK."""
    rank = {Family: 0, MonoH: 1, MonoK: 2}
    return (
        len(chain.steps),
        tuple(
            (s.contact.value, rank[type(s.shape)], s.degree, s.outgoing_exponent)
            for s in chain.steps
        ),
    )


def test_chain_counts_frozen():
    listings = {d: enumerate_chains(d) for d in range(2, 10)}
    counts = {d: len(chains) for d, chains in listings.items()}
    assert counts == {2: 2, 3: 4, 4: 13, 5: 37, 6: 104, 7: 295, 8: 835, 9: 2364}
    for chains in listings.values():
        assert chains == sorted(chains, key=published_order_key)


def test_degrees_strictly_decrease_along_chains():
    for d in range(2, 10):
        for c in enumerate_chains(d):
            degrees = [s.degree for s in c.steps]
            assert degrees[0] == d
            assert all(a > b for a, b in zip(degrees, degrees[1:]))
            assert all(not s.is_end_bubble for s in c.steps[:-1])
            assert c.steps[-1].is_end_bubble


def test_enumeration_deterministic():
    a = enumerate_chains(6)
    b = enumerate_chains(6)
    assert a == b
    ca = enumerate_configurations(4)
    cb = enumerate_configurations(4)
    assert ca == cb


def test_low_degree_rejected():
    with pytest.raises(UnsupportedDegreeError):
        enumerate_chains(1)
    with pytest.raises(UnsupportedDegreeError):
        enumerate_configurations(0)


def test_enumeration_halts_through_degree_twelve():
    for d in (10, 11, 12):
        chains = enumerate_chains(d)
        assert chains
        assert max(len(c.steps) for c in chains) < d
        assert chains == sorted(chains, key=published_order_key)
    assert_chain_digests((10, 11))
