"""The column tests and the representation deciders read one primitive.

``ContactStructure.image_collision`` is the d1+ column test and the weak
refusal; ``ContactStructure.disjoint_images`` is the d2 column test and the
overlap refusal.  They must agree with ``scan_oracles``, which rebuilds the
admissible columns and decides pair by pair: the gates' booleans on any
relation, and the refusal or representation on every weak contact.

Underneath, ``FiniteJoinSemilattice.images_over`` and ``meets`` take any
column list (the admissible columns, or one pair set's selector sums in the
d2 search); they must match a per-element scan on every list.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

import scan_oracles
from contactlab import axioms, representation
from contactlab.constructions import build_separator
from contactlab.core import (
    ContactRelation,
    ContactStructure,
    full_mask,
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


def column_lists(lattice, rng):
    """Every index ascending; the admissible-style list without the top;
    repeats of 0 and the top; and random lists with repeated entries."""
    size, top = lattice.size, lattice.top
    yield []
    yield list(range(size))
    yield list(range(top))
    yield [0, top, 0, top]
    for _ in range(4):
        yield [rng.randrange(size) for _ in range(rng.randint(1, 2 * size))]


def assert_kernel_agrees(lattice, rng, extra=()):
    for columns in [*column_lists(lattice, rng), *extra]:
        images = lattice.images_over(columns)
        assert images == scan_oracles.images_over_scan(lattice, columns)
        everything = full_mask(len(columns))
        masks = list(images) + [everything ^ img for img in images]
        masks += [0, everything] + [rng.getrandbits(len(columns)) for _ in range(4)]
        meets = lattice.meets(columns, masks)
        assert meets == scan_oracles.meets_scan(lattice, columns, masks)
        # Over the images, a meet holds exactly the elements of disjoint image.
        for x, meet in enumerate(meets[: lattice.size]):
            for y in range(lattice.size):
                assert (meet >> y) & 1 == (not images[x] & images[y])


def test_kernel_agrees_on_every_lattice_to_size_seven():
    rng = random.Random(12)
    checked = 0
    for lattice in enumerate_semilattices(7):
        assert_kernel_agrees(lattice, rng)
        checked += 1
    assert checked == 78


def test_kernel_agrees_on_separators():
    rng = random.Random(12)
    for n in (2, 3, 4):
        sep = build_separator(n)
        lattice = sep.structure.lattice
        # The d2 search's columns: the selector sums of the literal pairs.
        sums = axioms._selector_sums(lattice, sep.literal_pairs)
        assert_kernel_agrees(lattice, rng, extra=[sums])


def test_kernel_agrees_on_the_level_five_column_test(sep5):
    # 506 elements over the 32 admissible columns, with the images and
    # their complements as masks: at this scale the fold over the 12
    # irreducibles takes about half of the distinct masks, the AND the rest.
    lattice = sep5.structure.lattice
    columns, images = sep5.structure.canonical_images
    everything = full_mask(len(columns))
    masks = list(images) + [everything ^ img for img in images]
    assert len(masks) == 1012
    assert lattice.meets(columns, masks) == scan_oracles.meets_scan(lattice, columns, masks)
