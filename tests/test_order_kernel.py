"""The irreducible-basis order kernel agrees with the pair scans it replaces.

``FiniteJoinSemilattice.basis`` finds the union-irreducibles and their
up-sets in one walk of the sorted carrier; ``leq_masks``, ``below_masks``,
``meeting``, the union-closure check and ``overlap_contact`` are folds of
it, and ``ambient_extension_facts`` asks ``ambient_related`` only about
disjoint related pairs.  ``scan_oracles`` keeps the pair-by-pair versions;
masks, irreducibles (``basis``'s indices, read by
``scan_oracles.union_irreducibles``), overlap rows, verdicts, error text and
facts must match them exactly, on carriers far wider than they are large
too.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import scan_oracles
from contactlab.constructions import (
    ambient_extension_facts,
    ambient_related,
    build_separator,
    powerset_lattice,
)
from contactlab.core import (
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    join_closure,
    overlap_contact,
)
from contactlab.enumeration import enumerate_semilattices


def assert_masks_agree(lattice):
    fresh = FiniteJoinSemilattice.from_closed_carrier(lattice.width, lattice.carrier)
    assert fresh.leq_masks == scan_oracles.leq_masks_scan(fresh)
    assert fresh.below_masks == scan_oracles.below_masks_scan(fresh)
    for k in range(fresh.width):
        assert fresh.meeting(1 << k) == sum(
            1 << i for i, bits in enumerate(fresh.carrier) if (bits >> k) & 1
        )
    irreducibles = scan_oracles.union_irreducibles(fresh)
    assert irreducibles == scan_oracles.union_irreducibles_scan(fresh)
    assert overlap_contact(fresh).rows == scan_oracles.overlap_contact_scan(fresh)


def outcome(width, carrier):
    try:
        FiniteJoinSemilattice(width, carrier)
    except ValueError as exc:
        return str(exc)
    return None


def assert_closure_agrees(width, carrier):
    """Same verdict and error text as the pair scan."""
    assert outcome(width, carrier) == scan_oracles.semilattice_error(width, carrier)


def test_masks_and_closure_agree_on_every_lattice_to_size_eight():
    lattices = list(enumerate_semilattices(8))
    assert len(lattices) == 300
    for lattice in lattices:
        assert_masks_agree(lattice)
        # Enumeration skips the check, so its carriers must pass it here.
        assert scan_oracles.semilattice_error(lattice.width, lattice.carrier) is None
        assert_closure_agrees(lattice.width, lattice.carrier)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_masks_and_closure_agree_on_separators(n):
    sep = build_separator(n)
    lattice = sep.structure.lattice
    assert_masks_agree(lattice)
    assert_closure_agrees(lattice.width, lattice.carrier)
    assert scan_oracles.union_irreducibles(lattice) == scan_oracles.generator_indices(sep)
    # Dropping an atom keeps the carrier union-closed; dropping the top or
    # a reducible element does not, and the error names the scan's first gap.
    for dropped in (sep.even_product, lattice.top, lattice.top - 1):
        carrier = lattice.carrier[:dropped] + lattice.carrier[dropped + 1 :]
        assert_closure_agrees(lattice.width, carrier)
    with pytest.raises(ValueError, match="not union-closed"):
        FiniteJoinSemilattice(lattice.width, lattice.carrier[:-1])


@pytest.mark.parametrize("width", range(6))
def test_masks_and_closure_agree_on_powersets(width):
    lattice = powerset_lattice(width)
    assert_masks_agree(lattice)
    assert_closure_agrees(width, lattice.carrier)
    assert scan_oracles.union_irreducibles(lattice) == tuple(1 << k for k in range(width))


def test_masks_and_closure_agree_on_a_family_wider_than_it_is_large():
    rng = random.Random(1000)
    lattice = join_closure(1000, [rng.getrandbits(1000) for _ in range(5)])
    assert (lattice.size, len(scan_oracles.union_irreducibles(lattice))) == (32, 5)
    assert_masks_agree(lattice)
    assert_closure_agrees(1000, lattice.carrier)
    for dropped in (1, lattice.top - 1, lattice.top):
        carrier = lattice.carrier[:dropped] + lattice.carrier[dropped + 1 :]
        assert_closure_agrees(1000, carrier)


def test_edge_carriers():
    for width in (0, 3):
        lattice = FiniteJoinSemilattice(width, (0,))
        assert all(lattice.meeting(1 << k) == 0 for k in range(width))
        assert lattice.leq_masks == lattice.below_masks == (1,)
        assert scan_oracles.union_irreducibles(lattice) == ()
    # Ground points 0, 1 and 3 lie in no element, and the top is not full.
    lattice = FiniteJoinSemilattice(5, (0, 0b00100, 0b10000, 0b10100))
    assert [lattice.meeting(1 << k) for k in range(5)] == [0, 0, 0b1010, 0, 0b1100]
    assert_masks_agree(lattice)
    assert lattice.subsets_of(0b00111) == 0b0011
    assert lattice.meeting(0b01011) == 0
    assert_closure_agrees(5, (0, 0b00100, 0b10000))


@st.composite
def families(draw):
    """Sorted families holding 0, of widths 1-70: random subsets (mostly not
    union-closed), or join closures with one element dropped or kept."""
    width = draw(st.integers(1, 70))
    subsets = st.integers(0, (1 << width) - 1)
    if draw(st.booleans()):
        carrier = tuple(sorted({0, *draw(st.lists(subsets, max_size=90))}))
    else:
        generators = draw(st.lists(subsets, min_size=1, max_size=7))
        carrier = join_closure(width, generators).carrier
        drop = draw(st.integers(0, len(carrier)))
        if 0 < drop < len(carrier):
            carrier = carrier[:drop] + carrier[drop + 1 :]
    return width, carrier


@settings(max_examples=300, deadline=None)
@given(families())
def test_masks_and_closure_agree_on_random_families(family):
    width, carrier = family
    assert_masks_agree(FiniteJoinSemilattice.from_closed_carrier(width, carrier))
    assert_closure_agrees(width, carrier)


# -- ambient-extension facts --------------------------------------------------


def corrupted(sep, rows):
    lattice = sep.structure.lattice
    relation = ContactRelation(lattice.size, tuple(rows))
    return sep._replace(structure=ContactStructure(lattice, relation))


def corruptions(sep):
    """Separators with one fact flipped, named by the fact."""
    rows = list(sep.structure.contact.rows)
    # A related pair touching zero is related to nothing in the extension.
    touching_zero = rows[:]
    touching_zero[1] |= 1
    # Two overlapping elements made non-contact are still related there.
    i, j = sep.literal_pairs[0][0], sep.structure.lattice.top
    split = rows[:]
    split[i] &= ~(1 << j)
    split[j] &= ~(1 << i)
    return {
        "preserves": corrupted(sep, touching_zero),
        "reflects": corrupted(sep, split),
        # The odd product against itself: its first atom overlaps it.
        "nonadditive": sep._replace(even_product=sep.odd_product),
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ambient_facts_agree_on_separators_and_corruptions(n):
    sep = build_separator(n)
    facts = ambient_extension_facts(sep)
    assert facts == scan_oracles.ambient_extension_facts_scan(sep)
    assert facts == {"preserves": True, "reflects": True, "nonadditive": True}
    for fact, bad in corruptions(sep).items():
        flipped = ambient_extension_facts(bad)
        assert flipped == scan_oracles.ambient_extension_facts_scan(bad)
        assert flipped == {**facts, fact: False}


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.data())
def test_ambient_related_agrees_on_random_subsets(n, data):
    sep = build_separator(n)
    subsets = st.integers(0, sep.algebra.full)
    b1, b2 = data.draw(subsets), data.draw(subsets)
    assert ambient_related(sep, b1, b2) == scan_oracles.ambient_related_scan(sep, b1, b2)
