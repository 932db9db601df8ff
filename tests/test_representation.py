"""Column deciders, refusal diagnostics, and the brute-force oracle."""

import pytest

from contactlab.axioms import check_d1
from contactlab.core import (
    ContactStructure,
    contact_all_except,
    join_closure,
)
from contactlab.enumeration import classify_corpus
from contactlab.representation import (
    Refusal,
    Representation,
    admissible_columns,
    decide_overlap_representable,
    decide_weak_representable,
)
from scan_oracles import (
    Exhausted,
    brute_force_representation,
    contact_from_related_pairs,
)


def admissible_by_scan(cs):
    """Oracle: test the defining condition of a column literally."""
    lattice = cs.lattice
    out = []
    for m in range(lattice.size):
        filt = [x for x in range(lattice.size) if not lattice.leq(x, m)]
        if not filt:
            continue
        if any(
            a in filt and b in filt for a, b in cs.contact.noncontact_pairs()
        ):
            continue
        out.append(m)
    return tuple(out)


def test_admissible_columns_all_related(m3):
    lattice = m3.lattice
    cs = ContactStructure(lattice, contact_all_except(lattice.size, []))
    cols = admissible_columns(cs).columns
    assert cols == tuple(m for m in range(lattice.size) if m != lattice.top)
    assert cols == admissible_by_scan(cs)


def test_admissible_columns_on_separator(sep2):
    cs = sep2.structure
    cols = admissible_columns(cs).columns
    assert cols == admissible_by_scan(cs)
    # exactly the four 3-point elements admit columns
    assert [cs.lattice.carrier[m] for m in cols] == [0x7, 0xB, 0xD, 0xE]


def test_admissible_columns_on_diamond(ps2):
    # the bottom column contains the disjoint atom pair, so only the two
    # atom columns survive
    cols = admissible_columns(ps2).columns
    assert cols == admissible_by_scan(ps2)
    assert [ps2.lattice.carrier[m] for m in cols] == [0b01, 0b10]


def test_weak_representation_on_separators(sep2, sep3):
    for sep in (sep2, sep3):
        rep = decide_weak_representable(sep.structure)
        assert isinstance(rep, Representation)
        rep.validate(sep.structure)


def test_weak_representation_on_two_element_chain():
    lattice = join_closure(1, [1])
    cs = ContactStructure(lattice, contact_from_related_pairs(2, []))
    rep = decide_weak_representable(cs)
    assert isinstance(rep, Representation)
    assert rep.ground_size == 1
    rep.validate(cs)


def test_weak_refusal_on_d1_failing_structure(m3):
    assert not check_d1(m3).passed
    refusal = decide_weak_representable(m3)
    assert isinstance(refusal, Refusal)
    assert refusal.reason in ("zero-image", "indistinguishable-pair")


def test_overlap_representation_on_full_powerset(ps3):
    rep = decide_overlap_representable(ps3)
    assert isinstance(rep, Representation)
    rep.validate(ps3)
    # identity up to relabelling: the images enumerate the full powerset
    assert sorted(rep.images) == list(range(8))


def test_overlap_refusal_on_separators(sep2, sep3):
    for sep in (sep2, sep3):
        refusal = decide_overlap_representable(sep.structure)
        assert isinstance(refusal, Refusal)
        assert refusal.reason == "uncovered-contact-pair"
        i, j = refusal.elements
        assert sep.structure.contact.related(i, j)


def test_representation_validate_catches_corruption(sep2):
    rep = decide_weak_representable(sep2.structure)
    broken = Representation(rep.mode, rep.columns, rep.images[:-1] + (0,))
    with pytest.raises(AssertionError):
        broken.validate(sep2.structure)


def test_brute_force_trivial_structure():
    lattice = join_closure(0, [])
    cs = ContactStructure(lattice, contact_from_related_pairs(1, []))
    rep = brute_force_representation(cs)
    assert isinstance(rep, Representation)
    assert rep.ground_size == 0


def test_brute_force_budget_and_cap(ps2, sep2):
    assert isinstance(
        brute_force_representation(ps2, node_budget=1), Exhausted
    )
    with pytest.raises(ValueError):
        brute_force_representation(sep2.structure)  # carrier 12 > cap 8


def test_brute_force_agrees_with_decider_on_small_corpus():
    for record in classify_corpus(4):
        cs = record.structure
        for mode, decide in (
            ("weak", decide_weak_representable),
            ("overlap", decide_overlap_representable),
        ):
            canonical = isinstance(decide(cs), Representation)
            brute = brute_force_representation(cs, mode=mode)
            assert not isinstance(brute, Exhausted)
            assert canonical == isinstance(brute, Representation)


def test_weak_representable_iff_d1_small_corpus():
    for record in classify_corpus(4):
        assert record.profile.weak_representable == record.profile.d1


def test_representation_payload_roundtrip(sep2):
    rep = decide_weak_representable(sep2.structure)
    payload = rep.to_json()
    assert payload["mode"] == "weak"
    assert payload["ground_size"] == len(payload["columns"])
    assert len(payload["images"]) == sep2.structure.size


def test_weak_representation_extends_to_contact_embedding(sep2):
    """Success plus the minimal extension gives a contact embedding into a
    finite powerset algebra."""
    from contactlab.constructions import ContactMap, min_contact_extension, powerset_lattice

    cs = sep2.structure
    rep = decide_weak_representable(cs)
    target = powerset_lattice(rep.ground_size)
    cmap = ContactMap(cs, target, tuple(target.index[img] for img in rep.images))
    cmap.validate()
    ext = min_contact_extension(cmap)
    for i in range(1, cs.size):
        for j in range(i, cs.size):
            assert ext.related(cmap.kappa[i], cmap.kappa[j]) == cs.contact.related(
                i, j
            )
