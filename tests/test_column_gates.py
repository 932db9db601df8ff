"""Column-gated pair-subset checkers agree with the ungated scans.

The library runs each d1+/d2/d2minus pair-subset search only when the
polynomial admissible-column test finds a violation.  Swapping the ungated
scans of ``scan_oracles`` back in must leave every verdict, param, witness
and profile unchanged; only the ``examined`` counts may differ.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import scan_oracles
from contactlab import axioms
from contactlab.core import (
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
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
        axioms.profile_of(cs, d1_plus_max=1, d2_max=5).to_json(),
    )


def ungated_outcomes(cs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "_first_d1plus_violation", scan_oracles.first_d1plus_violation)
        mp.setattr(axioms, "_first_d2_violation", scan_oracles.first_d2_violation)
        mp.setattr(axioms, "check_d2_minus", scan_oracles.check_d2_minus)
        return outcomes(cs)


def test_agrees_with_ungated_scans_on_every_contact_to_size_six():
    checked = 0
    for lattice in enumerate_semilattices(6):
        for relation in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, relation)
            assert outcomes(cs) == ungated_outcomes(cs), lattice.carrier
            checked += 1
    assert checked == 149


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


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(overlap_closures())
def test_agrees_with_ungated_scans_on_random_closures(cs):
    assert axioms.check_weak_contact(cs).passed
    assert outcomes(cs) == ungated_outcomes(cs)


def test_powerset_of_five_with_overlap_passes():
    lattice = FiniteJoinSemilattice(5, tuple(range(32)))
    cs = ContactStructure(lattice, overlap_contact(lattice))
    assert len(cs.contact.noncontact_pairs()) == 90
    assert axioms.decide_d2_all(cs).passed
    assert axioms.check_d2_minus(cs).passed
    profile = axioms.profile_of(cs)
    assert profile.additive and profile.d1 and profile.d2_all and profile.d2_minus
    assert all(profile.d1_plus) and all(profile.d2)
    assert profile.d2_all_least_failing is None
