"""The column tests and the representation deciders read one primitive.

``ContactStructure.image_collision`` is the d1+ column test and the weak
refusal; ``ContactStructure.disjoint_images`` is the d2 column test and the
overlap refusal.  They must agree with ``scan_oracles``, which rebuilds the
admissible columns and decides pair by pair: the gates' booleans on any
relation, and the refusal or representation on every weak contact.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

import scan_oracles
from contactlab import axioms, representation
from contactlab.constructions import build_separator
from contactlab.core import (
    ContactRelation,
    ContactStructure,
    join_closure,
    overlap_contact,
)
from contactlab.enumeration import enumerate_contacts, enumerate_semilattices


def assert_gates_agree(cs):
    assert axioms._d1plus_violated(cs) == scan_oracles.d1plus_column_test(cs)
    assert axioms._d2_violated(cs) == scan_oracles.d2_column_test(cs)


def assert_deciders_agree(cs):
    """Both modes; returns each mode's refusal reason or "representation"."""
    outcomes = []
    for mode, decide in (
        ("weak", representation.decide_weak_representable),
        ("overlap", representation.decide_overlap_representable),
    ):
        expected = scan_oracles.decide_by_pairs(cs, mode)
        assert decide(cs) == expected, mode
        outcomes.append(getattr(expected, "reason", "representation"))
    return outcomes


def test_agree_on_every_contact_to_size_seven():
    reasons = set()
    checked = 0
    for lattice in enumerate_semilattices(7):
        for relation in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, relation)
            assert_gates_agree(cs)
            reasons.update(assert_deciders_agree(cs))
            checked += 1
    assert checked == 2043
    # A structure of carrier <= 7 passing d1 passes d2 at every level, so
    # no overlap refusal here is an uncovered contact pair.
    assert reasons == {"representation", "zero-image", "indistinguishable-pair"}


def test_agree_on_separators():
    for n in (2, 3, 4, 5):
        cs = build_separator(n).structure
        assert_gates_agree(cs)
        assert assert_deciders_agree(cs) == ["representation", "uncovered-contact-pair"]


@st.composite
def arbitrary_relations(draw):
    """Join closure of two to five subsets of a ground set of width 3 to 5,
    with overlap contact or random rows, then up to six bits flipped: mostly
    not weak contacts."""
    rng = draw(st.randoms(use_true_random=False))
    width = rng.randint(3, 5)
    gens = [rng.getrandbits(width) for _ in range(rng.randint(2, 5))]
    lattice = join_closure(width, gens)
    size = lattice.size
    if rng.random() < 0.5:
        rows = list(overlap_contact(lattice).rows)
    else:
        rows = [rng.getrandbits(size) for _ in range(size)]
    for _ in range(rng.randint(0, 6)):
        rows[rng.randrange(size)] ^= 1 << rng.randrange(size)
    return ContactStructure(lattice, ContactRelation(size, tuple(rows)))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arbitrary_relations())
def test_agree_on_arbitrary_relations(cs):
    assert_gates_agree(cs)
    if cs.is_weak_contact:
        assert_deciders_agree(cs)
