"""Witness constructions: parity products, separators, contact extensions."""

from itertools import product

import pytest

from contactlab.axioms import (
    check_additive,
    check_d1,
    check_d2,
    check_weak_contact,
    profile_of,
    revalidate_witness,
)
from contactlab.constructions import (
    ContactMap,
    OrderPreservationError,
    ZeroReflectionError,
    ambient_extension_facts,
    ambient_related,
    build_separator,
    check_embedding_criterion,
    min_contact_extension,
    parity_products,
    powerset_lattice,
)
from contactlab.certificates import separator_extension_facts
from contactlab.core import (
    ContactStructure,
    FreeBooleanAlgebra,
    contact_all_except,
    is_subset,
    overlap_contact,
)
from contactlab.enumeration import enumerate_contacts
from scan_oracles import (
    generator_indices,
    identity_map,
    inclusion_into_ambient,
    parity_products_sum_form,
)


# ---------------------------------------------------------------------------
# parity products


def test_parity_products_two_generators_bit_exact():
    even, odd = parity_products(2)
    assert even == 0b0110  # {01, 10}
    assert odd == 0b1001  # {00, 11}


def test_parity_products_complement_identity_up_to_ten():
    for n in range(1, 11):
        ba = FreeBooleanAlgebra.build(n)
        even, odd = parity_products(n)
        assert even & odd == 0
        assert even | odd == ba.full
        assert even == ba.complement(odd)


def test_parity_normal_forms_agree_up_to_ten():
    for n in range(1, 11):
        assert parity_products(n) == parity_products_sum_form(n)


def test_parity_products_are_parity_unions():
    # both routes must land on the even/odd-weight valuation classes
    for n in range(1, 8):
        even, odd = parity_products(n)
        for k in range(1 << n):
            expected_in_odd = k.bit_count() % 2 == 0
            assert bool((odd >> k) & 1) == expected_in_odd
            assert bool((even >> k) & 1) == (not expected_in_odd)


# ---------------------------------------------------------------------------
# separators


def test_separator_requires_level_two():
    with pytest.raises(ValueError):
        build_separator(1)


def test_separator_structure_counts(sep2, sep3):
    assert sep2.structure.size == 12
    assert len(sep2.structure.lattice.atoms()) == 6
    assert sep2.structure.contact.noncontact_pairs() == [
        tuple(sorted(p)) for p in sep2.literal_pairs
    ]
    assert sep3.structure.size == 42
    assert len(sep3.structure.lattice.atoms()) == 8


def test_designated_elements_incomparable_up_to_ten():
    for n in range(2, 11):
        ba = FreeBooleanAlgebra.build(n)
        even, odd = parity_products(n)
        masks = [ba.literal(i, j) for i in range(1, n + 1) for j in (0, 1)]
        masks += [even, odd]
        assert len(masks) == 2 * n + 2
        for a_pos, x in enumerate(masks):
            for y in masks[a_pos + 1 :]:
                assert not is_subset(x, y) and not is_subset(y, x)


def test_every_nonzero_element_dominates_a_designated_one(sep3):
    lattice = sep3.structure.lattice
    gen_masks = [lattice.carrier[i] for i in generator_indices(sep3)]
    for bits in lattice.carrier[1:]:
        assert any(is_subset(m, bits) for m in gen_masks)


def test_separator_profile_matches_expectations(sep2):
    profile = profile_of(sep2.structure, 2)
    assert profile.d1 and profile.d2 == (True, False)


def test_separator_roles_cover_all_generators(sep2):
    roles = sep2.roles
    assert set(roles) == {
        "gen_1", "gen_2", "cogen_1", "cogen_2", "even_product", "odd_product",
    }
    assert sorted(roles.values()) == list(generator_indices(sep2))


# ---------------------------------------------------------------------------
# contact maps and the minimal extension


def test_identity_extension_reproduces_contact(sep2, ps3, m3):
    for cs in (sep2.structure, ps3, m3):
        ext = min_contact_extension(identity_map(cs))
        assert ext.rows == cs.contact.rows


def test_map_validation_errors(ps2):
    lattice = ps2.lattice
    with pytest.raises(ZeroReflectionError):
        ContactMap(ps2, lattice, (0, 0, 2, 3)).validate()
    with pytest.raises(ZeroReflectionError):
        ContactMap(ps2, lattice, (1, 1, 2, 3)).validate()
    # send {0} above {1}: order collapses
    with pytest.raises(OrderPreservationError):
        ContactMap(ps2, lattice, (0, 3, 2, 1)).validate()


def test_min_contact_extension_validates_its_input(ps2):
    with pytest.raises(ZeroReflectionError):
        min_contact_extension(ContactMap(ps2, ps2.lattice, (0, 0, 2, 3)))


def test_extension_is_weak_contact_and_embedding(sep2, sep3):
    for sep in (sep2, sep3):
        incl = inclusion_into_ambient(sep)
        assert check_embedding_criterion(incl).passed
        ext = min_contact_extension(incl)
        ext_cs = ContactStructure(incl.target, ext)
        assert check_weak_contact(ext_cs).passed
        rel = sep.structure.contact
        for i in range(1, sep.structure.size):
            for j in range(i, sep.structure.size):
                assert ext.related(incl.kappa[i], incl.kappa[j]) == rel.related(i, j)


def test_extension_nonadditive_with_parity_witness(sep2):
    incl = inclusion_into_ambient(sep2)
    ext = min_contact_extension(incl)
    ext_cs = ContactStructure(incl.target, ext)
    verdict = check_additive(ext_cs)
    assert not verdict.passed
    assert revalidate_witness(ext_cs, "add", {}, verdict.witness)
    # the documented instance: odd product against the even product split
    # into its two ambient atoms, which contact nothing inside the odd part
    target = incl.target
    odd = target.index[0b1001]
    atom1, atom2 = target.index[0b0010], target.index[0b0100]
    assert ext.related(odd, target.join(atom1, atom2))
    assert not ext.related(odd, atom1) and not ext.related(odd, atom2)


def test_embedding_criterion_failures(ps2, ps3):
    # collapse two incomparable elements: not an order embedding
    lattice = ps2.lattice
    collapsing = ContactMap(ps2, lattice, (0, 1, 1, 3))
    verdict = check_embedding_criterion(collapsing)
    assert not verdict.passed and verdict.witness.kind == "order-embedding"
    # send the non-contact pair of the diamond to overlapping sets
    target = ps3.lattice
    kappa = (0, target.index[0b011], target.index[0b110], target.index[0b111])
    overlapping = ContactMap(ps2, target, kappa)
    verdict = check_embedding_criterion(overlapping)
    assert not verdict.passed and verdict.witness.kind == "meet"
    assert verdict.witness.pairs == ((1, 2),)


def test_extension_minimal_among_homomorphism_contacts(ps2, m3):
    # exhaustive on two small sources into themselves and into each other
    sources = [ps2, m3]
    targets = [ps2.lattice, m3.lattice]
    for src in sources:
        for tgt in targets:
            for kappa in product(range(tgt.size), repeat=src.size):
                cmap = ContactMap(src, tgt, kappa)
                try:
                    cmap.validate()
                except (OrderPreservationError, ZeroReflectionError):
                    continue
                ext = min_contact_extension(cmap)
                for cand in enumerate_contacts(tgt):
                    if not all(
                        cand.related(kappa[i], kappa[j])
                        for i in range(1, src.size)
                        for j in range(i, src.size)
                        if src.contact.related(i, j)
                    ):
                        continue
                    assert all(
                        ext.rows[i] & ~cand.rows[i] == 0 for i in range(tgt.size)
                    )


def test_lazy_ambient_relation_matches_materialized(sep2, sep3):
    for sep in (sep2, sep3):
        incl = inclusion_into_ambient(sep)
        ext = min_contact_extension(incl)
        target = incl.target
        for b1 in range(target.size):
            for b2 in range(target.size):
                assert ambient_related(
                    sep, target.carrier[b1], target.carrier[b2]
                ) == ext.related(b1, b2)


def test_ambient_extension_facts(sep2, sep3):
    for sep in (sep2, sep3):
        facts = ambient_extension_facts(sep)
        assert facts == {"preserves": True, "reflects": True, "nonadditive": True}


def materialized_extension_facts(sep):
    """The separator extension facts on the materialized ambient powerset
    and extension relation: the oracle for the lazy path (n <= 3)."""
    incl = inclusion_into_ambient(sep)
    ext = min_contact_extension(incl)
    ext_cs = ContactStructure(incl.target, ext)
    rel = sep.structure.contact
    kappa = incl.kappa
    return {
        "extension_embedding_criterion": check_embedding_criterion(incl).passed,
        "extension_weak_contact": check_weak_contact(ext_cs).passed,
        "extension_preserves": all(
            ext.related(kappa[i], kappa[j])
            for i in range(1, sep.structure.size)
            for j in range(i, sep.structure.size)
            if rel.related(i, j)
        ),
        "extension_reflects": all(
            not ext.related(kappa[i], kappa[j]) for i, j in rel.noncontact_pairs()
        ),
        "extension_nonadditive": not check_additive(ext_cs).passed,
    }


def test_separator_extension_facts_match_materialized_oracle(sep2, sep3):
    for sep in (sep2, sep3):
        assert list(separator_extension_facts(sep).items()) == list(
            materialized_extension_facts(sep).items()
        )


def test_separator_extension_facts_on_other_weak_contacts(sep2, sep3):
    # Other weak contacts on the separator lattices, so that the embedding
    # facts are seen false too.  The lazy non-additivity fact tests one
    # instance (the odd product against the split even product), so it only
    # implies the oracle's verdict.
    seen = set()
    for sep in (sep2, sep3):
        lattice = sep.structure.lattice
        gen = sep.literal_pairs[0][0]
        for contact in (
            overlap_contact(lattice),
            contact_all_except(lattice.size, [(sep.even_product, sep.odd_product)]),
            contact_all_except(lattice.size, [(gen, sep.even_product)]),
        ):
            variant = sep._replace(structure=ContactStructure(lattice, contact))
            assert check_weak_contact(variant.structure).passed
            facts = separator_extension_facts(variant)
            oracle = materialized_extension_facts(variant)
            assert facts.pop("extension_nonadditive") <= oracle.pop(
                "extension_nonadditive"
            )
            assert facts == oracle
            seen |= set(facts.items())
    assert ("extension_embedding_criterion", False) in seen
    assert ("extension_reflects", False) in seen


def test_powerset_lattice_cap():
    with pytest.raises(ValueError):
        powerset_lattice(21)


def _assert_separator_chain(n, size, witness):
    sep = build_separator(n)
    cs = sep.structure
    assert cs.size == size
    assert check_d1(cs).passed
    for level in range(1, n):
        assert check_d2(cs, level).passed
    verdict = check_d2(cs, n)
    assert not verdict.passed
    assert (verdict.witness.element("a"), verdict.witness.element("b")) == witness
    assert revalidate_witness(cs, "d2", {"n": n}, verdict.witness)
    assert revalidate_witness(cs, "d2", {"n": n}, sep.expected_d2_witness())
    facts = separator_extension_facts(sep)
    assert len(facts) == 5 and all(facts.values())


def test_separator_pattern_extends_to_level_five():
    _assert_separator_chain(5, 506, (24, 58))


@pytest.mark.slow
def test_separator_pattern_extends_to_level_six():
    _assert_separator_chain(6, 1676, (48, 121))
