"""Column-gated pair-subset checkers agree with the ungated scans.

The library runs each d1+/d2/d2minus pair-subset search only when the
polynomial admissible-column test finds a violation.  Swapping the ungated
scans of ``scan_oracles`` back in must leave every verdict, param, witness
and profile unchanged; only the ``examined`` counts may differ.  d2minus,
decided on the ground points, must also match the column-gated selector-sum
search it replaced, ``examined`` included.  The d2minus slot answers, with
one bound per element, and the additivity scan, with its joins read off the
carrier, must match the per-slot and per-join scans they replaced.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import scan_oracles
from contactlab import axioms
from contactlab.constructions import build_separator
from contactlab.core import (
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    contact_all_except,
    iter_bits,
    join_closure,
    overlap_contact,
)
from contactlab.enumeration import enumerate_contacts, enumerate_semilattices


def _strip(verdict):
    payload = verdict.to_json()
    del payload["stats"]
    return payload


def outcomes(cs):
    """Every pair-subset decision on cs, stats stripped; calls go through
    module attributes so that swapped-in scans take effect."""
    bound = len(cs.contact.noncontact_pairs())
    verdicts = [axioms.check_d1(cs), axioms.decide_d2_all(cs), axioms.check_d2_minus(cs)]
    for n in (1, 2, 3):
        verdicts.append(axioms.check_d1_plus(cs, n))
        verdicts.append(axioms.check_d2(cs, n))
    return (
        [_strip(v) for v in verdicts],
        axioms._first_d1plus_violation(cs, bound)[:2],
        axioms.profile_of(cs).to_json(),
        axioms.profile_of(cs, 1).to_json(),
        axioms.profile_of(cs, 5).to_json(),
    )


def ungated_outcomes(cs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "_first_d1plus_violation", scan_oracles.first_d1plus_violation)
        mp.setattr(axioms, "_first_d2_violation", scan_oracles.first_d2_violation)
        mp.setattr(axioms, "check_d2_minus", scan_oracles.check_d2_minus)
        result = outcomes(cs)
    # The profiles take d2minus from the column test, which no swap reaches,
    # so their flag is held against the ungated search here.
    verdicts, _, *profiles = result
    d2_minus = verdicts[2]
    assert d2_minus["axiom"] == "d2minus"
    for profile in profiles:
        assert profile["d2_minus"] == (d2_minus["verdict"] == "pass")
    return result


def assert_d2_minus_matches_reference(cs):
    """check_d2_minus equals the replaced decider in full, elapsed time
    aside, and the profile's flag on a fresh structure agrees."""
    reference = scan_oracles.gated_check_d2_minus(cs)
    verdict = axioms.check_d2_minus(cs)
    assert verdict._replace(elapsed=0.0) == reference._replace(elapsed=0.0)
    fresh = ContactStructure(cs.lattice, cs.contact)
    assert axioms.profile_of(fresh).d2_minus == reference.passed
    return verdict


def assert_matches_the_per_slot_scans(cs):
    """The d2minus slot answers and the additivity verdict (witness and
    ``examined`` included) equal the per-slot and per-join oracles'."""
    slots = list(axioms._d2minus_slots(cs))
    assert slots == list(scan_oracles.d2minus_slots_per_slot(cs))
    verdict = axioms.check_additive(cs)
    reference = scan_oracles.check_additive_by_joins(cs)
    assert verdict._replace(elapsed=0.0) == reference._replace(elapsed=0.0)
    return slots, verdict


def test_slot_bounds_and_additivity_match_the_replaced_scans_to_size_seven():
    checked = failing = 0
    for lattice in enumerate_semilattices(7):
        for relation in enumerate_contacts(lattice):
            slots, verdict = assert_matches_the_per_slot_scans(
                ContactStructure(lattice, relation)
            )
            assert slots
            failing += not verdict.passed
            checked += 1
    assert checked == 2043
    assert failing


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slot_bounds_and_additivity_match_the_replaced_scans_on_the_separators(n):
    slots, verdict = assert_matches_the_per_slot_scans(build_separator(n).structure)
    assert not any(violated for _, _, violated in slots)
    assert verdict.passed


def test_agrees_with_ungated_scans_on_every_contact_to_size_six():
    checked = 0
    for lattice in enumerate_semilattices(6):
        for relation in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, relation)
            assert outcomes(cs) == ungated_outcomes(cs), lattice.carrier
            checked += 1
    assert checked == 149


def test_profile_d2_minus_flag_agrees_with_the_ungated_search_to_size_seven():
    checked = 0
    for lattice in enumerate_semilattices(7):
        for relation in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, relation)
            expected = scan_oracles.check_d2_minus(cs).passed
            assert axioms.profile_of(cs).d2_minus == expected, lattice.carrier
            assert assert_d2_minus_matches_reference(cs).passed == expected
            checked += 1
    assert checked == 2043


def test_column_test_skips_the_search_on_passing_structures():
    # A pass costs one unit per element (per first-slot pair for d2minus)
    # looked at by the column test, and nothing for the pair-subset search.
    for lattice in enumerate_semilattices(6):
        for relation in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, relation)
            for verdict in (axioms.check_d1(cs), axioms.check_d2(cs, 3),
                            axioms.decide_d2_all(cs)):
                assert not verdict.passed or verdict.examined == cs.size
            first_slot = sum(
                not relation.related(i, j)
                for i in range(cs.size)
                for j in range(i, cs.size)
            )
            verdict = axioms.check_d2_minus(cs)
            assert not verdict.passed or verdict.examined == first_slot


@st.composite
def overlap_closures(draw):
    """Join closure of two to five subsets of a ground set of width 3 to 5,
    with overlap contact plus the up-closure of up to two extra pairs."""
    # Hypothesis favours simple integers; its seeded Random draws the
    # shape uniformly, so the pair counts spread over the whole range.
    rng = draw(st.randoms(use_true_random=False))
    width = rng.randint(3, 5)
    gens = [rng.getrandbits(width) for _ in range(rng.randint(2, 5))]
    lattice = join_closure(width, gens)
    assume(lattice.size > 1)
    leq = lattice.leq_masks
    rows = list(overlap_contact(lattice).rows)
    element = st.integers(min_value=1, max_value=lattice.size - 1)
    for a, b in draw(st.lists(st.tuples(element, element), max_size=2)):
        for x in iter_bits(leq[a]):
            rows[x] |= leq[b]
        for y in iter_bits(leq[b]):
            rows[y] |= leq[a]
    cs = ContactStructure(lattice, ContactRelation(lattice.size, tuple(rows)))
    assume(len(cs.contact.noncontact_pairs()) <= 10)
    return cs


# The ungated scans are exponential in |P|, so the cost of a run is that of
# its draws; fixed draws make it the same from run to run.
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(overlap_closures())
def test_agrees_with_ungated_scans_on_random_closures(cs):
    assert axioms.check_weak_contact(cs).passed
    assert outcomes(cs) == ungated_outcomes(cs)
    assert_d2_minus_matches_reference(cs)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(overlap_closures())
def test_slot_bounds_and_additivity_match_the_replaced_scans_on_random_closures(cs):
    assert_matches_the_per_slot_scans(cs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_d2_minus_matches_the_replaced_decider_on_the_separators(n):
    assert assert_d2_minus_matches_reference(build_separator(n).structure).passed


def common_points_family(r):
    """Ground points U, V, p_1..p_r; the pairs x_i = U + p_i, y_i = V + p_i
    and B = p_1 + ... + p_r generate the lattice, and everything but the r
    pairs (x_i, y_i) is in contact.  B is below the selector sums over a
    pair set only once the set holds every pair."""
    u, v = 0b01, 0b10
    points = [1 << (2 + i) for i in range(r)]
    lattice = join_closure(2 + r, [u | p for p in points] + [v | p for p in points]
                           + [sum(points)])
    index = lattice.index
    pairs = [(index[u | p], index[v | p]) for p in points]
    cs = ContactStructure(lattice, contact_all_except(lattice.size, pairs))
    return cs, sorted(pairs), index[sum(points)]


def test_d2_minus_needs_every_pair_of_the_common_points_family():
    # The first slot (0, 0) fails only with all r pairs, after every smaller
    # pair set: 1 first-slot pair plus 2^r sets examined.
    cs, pairs, b = common_points_family(8)
    assert axioms.check_weak_contact(cs).passed
    verdict = assert_d2_minus_matches_reference(cs)
    assert not verdict.passed
    assert verdict.witness.pairs == ((0, 0), *pairs)
    assert dict(verdict.witness.elements) == {"a": b, "b": b}
    assert verdict.examined == 1 + 2**8
    assert axioms.revalidate_witness(cs, "d2minus", {}, verdict.witness)


def test_powerset_of_five_with_overlap_passes():
    lattice = FiniteJoinSemilattice(5, tuple(range(32)))
    cs = ContactStructure(lattice, overlap_contact(lattice))
    assert len(cs.contact.noncontact_pairs()) == 90
    assert axioms.decide_d2_all(cs).passed
    assert axioms.check_d2_minus(cs).passed
    profile = axioms.profile_of(cs)
    assert profile.additive and profile.d1 and profile.d2_all and profile.d2_minus
    assert all(profile.d2)
    assert profile.d2_all_least_failing is None
