"""The profile-group d2 search and the one-sided weak-contact gate agree with
the scans they replace, and one d2 pass over several levels agrees with a
check_d2 call per level.

``scan_oracles.gated_first_d2_violation`` is the per-partner d2 scan behind
the same column test, and ``scan_oracles.check_weak_contact`` walks every
pair of the relation.  Verdicts, witnesses and profiles must match in full,
``examined`` included; only the wall-clock ``elapsed_s`` may differ.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import scan_oracles
from contactlab import axioms
from contactlab.axioms import InvalidContactError, require_weak_contact
from contactlab.constructions import build_separator
from contactlab.core import ContactRelation, ContactStructure
from contactlab.enumeration import enumerate_contacts, enumerate_semilattices
from test_column_gates import overlap_closures


def _strip(verdict):
    payload = verdict.to_json()
    del payload["stats"]["elapsed_s"]
    return payload


def d2_outcomes(cs, levels=(1, 2, 3)):
    """Every d2 decision on cs; calls go through module attributes so that a
    swapped-in scan takes effect."""
    verdicts = [axioms.check_d2(cs, n) for n in levels] + [axioms.decide_d2_all(cs)]
    return (
        [_strip(v) for v in verdicts],
        axioms.profile_of(cs, d1_plus_max=1, d2_max=max(levels)).to_json(),
    )


def assert_d2_agrees(cs, levels=(1, 2, 3)):
    # One pass to a level beyond the deepest checked gives every level's
    # verdict as its own check_d2 call does.
    depth = max(levels) + 1
    one_pass = [_strip(v) for v in axioms.check_d2_levels(cs, depth)]
    assert one_pass == [_strip(axioms.check_d2(cs, n)) for n in range(1, depth + 1)]
    library = d2_outcomes(cs, levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "_first_d2_violation", scan_oracles.gated_first_d2_violation)
        oracle = d2_outcomes(cs, levels)
    assert library == oracle


def assert_weak_contact_agrees(cs):
    verdict = axioms.check_weak_contact(cs)
    assert _strip(verdict) == _strip(scan_oracles.check_weak_contact(cs))
    assert cs.is_weak_contact is verdict.passed
    if verdict.passed:
        require_weak_contact(cs)
    else:
        with pytest.raises(InvalidContactError, match=verdict.witness.kind):
            require_weak_contact(cs)


def small_contacts(max_size=6):
    for lattice in enumerate_semilattices(max_size):
        for relation in enumerate_contacts(lattice):
            yield ContactStructure(lattice, relation)


def flipped(cs, i, j, both):
    """cs with bit j of row i toggled, and bit i of row j too if ``both``."""
    rows = list(cs.contact.rows)
    rows[i] ^= 1 << j
    if both and i != j:
        rows[j] ^= 1 << i
    return ContactStructure(cs.lattice, ContactRelation(cs.size, tuple(rows)))


def corruptions(cs, rows=None):
    """One-sided and two-sided toggles of every entry in the given rows (all
    by default): asymmetric pairs, rows that are not up-closed, zero in a
    row, a missing diagonal bit."""
    for i in range(cs.size) if rows is None else rows:
        for j in range(cs.size):
            for both in (False, True):
                yield flipped(cs, i, j, both)


def test_d2_agrees_on_every_contact_to_size_six():
    checked = 0
    for cs in small_contacts():
        assert_d2_agrees(cs)
        checked += 1
    assert checked == 149


@pytest.mark.parametrize("n", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_d2_agrees_on_separators(n):
    assert_d2_agrees(build_separator(n).structure, levels=tuple(range(1, n + 1)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(overlap_closures(), st.data())
def test_agrees_on_random_closures(cs, data):
    assert_d2_agrees(cs)
    assert_weak_contact_agrees(cs)
    index = st.integers(min_value=0, max_value=cs.size - 1)
    i, j, both = data.draw(st.tuples(index, index, st.booleans()))
    assert_weak_contact_agrees(flipped(cs, i, j, both))


def test_weak_contact_agrees_on_contacts_and_their_corruptions():
    invalid = 0
    for cs in small_contacts():
        assert_weak_contact_agrees(cs)
        for bad in corruptions(cs):
            assert_weak_contact_agrees(bad)
            invalid += not bad.is_weak_contact
    assert invalid == 8942


def test_weak_contact_agrees_on_every_small_relation():
    # Every relation on every lattice of size <= 3, and on the size-4
    # lattices every relation with an empty zero row: both sides of the
    # one-sided gate, on valid and invalid input alike.
    for lattice in enumerate_semilattices(4):
        size = lattice.size
        free_rows = size if size <= 3 else size - 1
        for bits in range(1 << (free_rows * size)):
            rows = [(bits >> (size * k)) & ((1 << size) - 1) for k in range(free_rows)]
            rows = [0] * (size - free_rows) + rows
            assert_weak_contact_agrees(
                ContactStructure(lattice, ContactRelation(size, tuple(rows)))
            )


def test_bit_beyond_the_carrier_is_not_a_weak_contact(sep2):
    # Refused when the relation is built, so no checker ever indexes a row
    # beyond the carrier.
    size = sep2.structure.size
    for extra in (1 << size, -1 << size):
        rows = list(sep2.structure.contact.rows)
        rows[1] |= extra
        with pytest.raises(ValueError, match="row 1 has bits beyond"):
            ContactRelation(size, tuple(rows))


@pytest.mark.parametrize("n", [2, 3])
def test_weak_contact_agrees_on_corrupted_separators(n):
    # Dense relations, checked on the unrelated side: every entry at n = 2;
    # at n = 3 the rows of 0, of the non-contact pair components and of the
    # top.
    sep = build_separator(n)
    cs = sep.structure
    assert_weak_contact_agrees(cs)
    rows = None if n == 2 else sorted({0, cs.lattice.top, *sum(sep.literal_pairs, ())})
    for bad in corruptions(cs, rows):
        assert_weak_contact_agrees(bad)


def test_level_five_counters(sep5):
    verdict = axioms.check_d2(sep5.structure, 5)
    assert verdict.examined == 15680
    assert dict(verdict.witness.elements) == {"a": 24, "b": 58}
    assert axioms.check_weak_contact(sep5.structure).examined == 510535


def test_one_d2_pass_examines_each_level_once():
    # Per-level calls at n = 4 examine 736 + 1,618 + 2,206 + 2,218 = 6,778
    # elements; the one pass examines 2,218 and keeps each level's count.
    verdicts = axioms.check_d2_levels(build_separator(4).structure, 4)
    assert [v.examined for v in verdicts] == [736, 1618, 2206, 2218]
    assert [v.passed for v in verdicts] == [True, True, True, False]
    assert [v.params for v in verdicts] == [{"n": n} for n in range(1, 5)]
