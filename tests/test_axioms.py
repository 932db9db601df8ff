"""Axiom checkers: verdicts, witnesses, reductions, and oracle agreement."""

import pytest

from contactlab.axioms import (
    InvalidContactError,
    Witness,
    check_additive,
    check_d1,
    check_d1_plus,
    check_d2,
    check_d2_minus,
    check_weak_contact,
    decide_d2_all,
    profile_of,
    revalidate_witness,
)
from contactlab.core import (
    ContactRelation,
    ContactStructure,
    contact_all_except,
    join_closure,
)
from contactlab.enumeration import enumerate_contacts, enumerate_semilattices
from scan_oracles import check_d2_naive, contact_from_related_pairs


def chain3_with_dropped_pair():
    """0 < a < b with the (a, b) contact dropped: breaks monotonicity."""
    lattice = join_closure(2, [0b01, 0b11])
    rows = [0, 0b010, 0b100]  # only the diagonal survives
    return ContactStructure(lattice, ContactRelation(3, tuple(rows)))


# ---------------------------------------------------------------------------
# weak contact validity


def test_overlap_passes(ps2, ps3, m3, sep2):
    for cs in (ps2, ps3, m3, sep2.structure):
        assert check_weak_contact(cs).passed


def test_extension_violation_detected_with_witness():
    cs = chain3_with_dropped_pair()
    verdict = check_weak_contact(cs)
    assert not verdict.passed
    assert verdict.witness.kind == "extension"
    assert revalidate_witness(cs, "weak-contact", {}, verdict.witness)


def test_asymmetry_detected():
    # Choosing the sparser side row by row would check row 1 on its related
    # side and row 2 on its unrelated side, and see neither (1, 2) nor (2, 1).
    lattice = join_closure(2, [0b01, 0b11])
    rows = (0, 0b110, 0b100)  # 1 related to 2, but not back
    cs = ContactStructure(lattice, ContactRelation(3, rows))
    assert not cs.is_weak_contact
    verdict = check_weak_contact(cs)
    assert not verdict.passed
    assert verdict.witness.kind == "symmetry"
    assert dict(verdict.witness.elements) == {"a": 1, "b": 2}
    assert revalidate_witness(cs, "weak-contact", {}, verdict.witness)


def test_zero_and_reflexivity_detected():
    lattice = join_closure(2, [0b01, 0b11])
    with_zero = ContactRelation(3, (0b010, 0b011, 0b100))
    verdict = check_weak_contact(ContactStructure(lattice, with_zero))
    assert not verdict.passed and verdict.witness.kind == "zero"
    missing_diag = ContactRelation(3, (0, 0b010, 0))
    verdict = check_weak_contact(ContactStructure(lattice, missing_diag))
    assert not verdict.passed and verdict.witness.kind == "reflexivity"


def test_separator_relation_is_weak_contact(sep2, sep3):
    assert check_weak_contact(sep2.structure).passed
    assert check_weak_contact(sep3.structure).passed


# ---------------------------------------------------------------------------
# additivity


def test_additive_on_full_powerset(ps3):
    assert check_additive(ps3).passed


def test_additive_when_everything_related(m3):
    lattice = m3.lattice
    all_pairs = contact_all_except(lattice.size, [])
    assert check_additive(ContactStructure(lattice, all_pairs)).passed


def test_additive_rejects_invalid_input():
    with pytest.raises(InvalidContactError):
        check_additive(chain3_with_dropped_pair())


def test_additivity_failure_witness_revalidates(m3):
    # M3 with overlap: top contacts each coatom, coatoms pairwise disjoint
    verdict = check_additive(m3)
    assert not verdict.passed
    assert revalidate_witness(m3, "add", {}, verdict.witness)


# ---------------------------------------------------------------------------
# d1 and d1+


def test_d1_vacuous_when_everything_related(m3):
    lattice = m3.lattice
    cs = ContactStructure(lattice, contact_all_except(lattice.size, []))
    assert check_d1(cs).passed


def test_d1_on_separators(sep2, sep3):
    assert check_d1(sep2.structure).passed
    assert check_d1(sep3.structure).passed


def test_d1_fails_on_m3(m3):
    verdict = check_d1(m3)
    assert not verdict.passed
    w = verdict.witness
    assert revalidate_witness(m3, "d1", {}, w)
    assert {name for name, _ in w.elements} == {"a", "b"} and len(w.pairs) == 1
    # the classic four-distinct-element instance also violates: take the
    # third coatom for a, the top for b, and the other two coatoms as pair
    lattice = m3.lattice
    coatoms = [lattice.index[m] for m in (0b011, 0b101, 0b110)]
    top = lattice.index[0b111]
    classic = Witness("d1", (("a", coatoms[2]), ("b", top)), ((coatoms[0], coatoms[1]),))
    assert revalidate_witness(m3, "d1", {}, classic)


def test_d1_plus_level_one_matches_d1(m3, sep2):
    for cs in (m3, sep2.structure):
        v1, vp = check_d1(cs), check_d1_plus(cs, 1)
        assert v1.passed == vp.passed
        if not v1.passed:
            assert v1.witness.elements == vp.witness.elements
            assert v1.witness.pairs == vp.witness.pairs


def test_d1_implies_d1_plus_on_passing_structures(ps3, sep2, sep3):
    for cs in (ps3, sep2.structure, sep3.structure):
        assert check_d1(cs).passed
        for n in (1, 2, 3):
            assert check_d1_plus(cs, n).passed


def test_d1_plus_witness_revalidates(m3):
    verdict = check_d1_plus(m3, 2)
    assert not verdict.passed
    assert revalidate_witness(m3, "d1plus", {"n": 2}, verdict.witness)


def test_witness_revalidates_only_with_its_kind_and_within_its_level(m3, sep3):
    cs, witness = sep3.structure, sep3.expected_d2_witness()
    assert len(witness.pairs) == 3
    for n in (1, 2):
        assert not revalidate_witness(cs, "d2", {"n": n}, witness)
    assert not revalidate_witness(cs, "d2", {}, witness)
    assert revalidate_witness(cs, "d2", {"n": 3}, witness)
    assert revalidate_witness(cs, "d2all", {}, witness)
    for kind in ("d2all", "d1", "anything"):
        other = witness._replace(kind=kind)
        assert not revalidate_witness(cs, "d2", {"n": 3}, other)
        assert not revalidate_witness(cs, "d2all", {}, other)
    d1 = check_d1(m3).witness
    assert revalidate_witness(m3, "d1", {}, d1)
    assert not revalidate_witness(m3, "d1plus", {}, d1)
    assert not revalidate_witness(m3, "d1", {}, d1._replace(pairs=d1.pairs * 2))
    assert revalidate_witness(m3, "d1plus", {"n": 2}, d1._replace(kind="d1plus"))
    assert not revalidate_witness(
        m3, "d1plus", {"n": 1}, d1._replace(kind="d1plus", pairs=d1.pairs * 2)
    )
    add = check_additive(m3).witness
    assert revalidate_witness(m3, "add", {}, add)
    assert not revalidate_witness(m3, "add", {}, add._replace(kind="d1"))


def _failing_witnesses(m3, sep3):
    """(structure, axiom, params, witness) for a witness of every kind."""
    lattice = join_closure(2, [0b01, 0b11])
    weak = [
        chain3_with_dropped_pair(),  # extension
        ContactStructure(lattice, ContactRelation(3, (0, 0b110, 0b100))),  # symmetry
        ContactStructure(lattice, ContactRelation(3, (0b010, 0b011, 0b100))),  # zero
        ContactStructure(lattice, ContactRelation(3, (0, 0b010, 0))),  # reflexivity
    ]
    found = [(cs, "weak-contact", {}, check_weak_contact(cs).witness) for cs in weak]
    found += [
        (m3, "add", {}, check_additive(m3).witness),
        (m3, "d1", {}, check_d1(m3).witness),
        (m3, "d1plus", {"n": 2}, check_d1_plus(m3, 2).witness),
        (sep3.structure, "d2", {"n": 3}, sep3.expected_d2_witness()),
    ]
    minus = next(
        cs
        for lattice in enumerate_semilattices(5)
        for rel in enumerate_contacts(lattice)
        if not check_d2_minus(cs := ContactStructure(lattice, rel)).passed
    )
    found.append((minus, "d2minus", {}, check_d2_minus(minus).witness))
    return found


def test_witness_revalidates_only_with_exactly_its_kinds_roles(m3, sep3):
    # Each role edit revalidated while revalidate_witness read the roles it
    # needs and ignored any other.
    found = _failing_witnesses(m3, sep3)
    kinds = [witness.kind for *_, witness in found]
    assert kinds == ["extension", "symmetry", "zero", "reflexivity",
                     "add", "d1", "d1plus", "d2", "d2minus"]
    for cs, axiom, params, witness in found:
        assert revalidate_witness(cs, axiom, params, witness)
        elements = witness.elements
        names = {name for name, _ in elements}
        extra = [elements + ((name, 0),) for name in ("c", "a1", "") if name not in names]
        for edited in extra + [elements[1:], (("z", elements[0][1]),) + elements[1:]]:
            edit = witness._replace(elements=edited)
            assert not revalidate_witness(cs, axiom, params, edit), (witness, edited)


# ---------------------------------------------------------------------------
# d2 family


def test_d2_vacuous_without_noncontact_pairs(m3):
    lattice = m3.lattice
    cs = ContactStructure(lattice, contact_all_except(lattice.size, []))
    for n in (1, 2, 3):
        assert check_d2(cs, n).passed
    assert decide_d2_all(cs).passed


def test_d2_exact_failure_level(sep2, sep3):
    for sep, n in ((sep2, 2), (sep3, 3)):
        cs = sep.structure
        for m in range(1, n):
            assert check_d2(cs, m).passed
        verdict = check_d2(cs, n)
        assert not verdict.passed
        assert revalidate_witness(cs, "d2", {"n": n}, verdict.witness)


def test_d2_level_beyond_pair_count_costs_no_more(sep2, ps2):
    # A level from outside (`check d2 --n`, a certificate's params) may be
    # huge; the scan stops at the number of non-contact pairs.
    for cs in (sep2.structure, ps2):
        deep = check_d2(cs, 10**9)
        bounded = check_d2(cs, len(cs.contact.noncontact_pairs()))
        assert (deep.passed, deep.witness, deep.examined) == (
            bounded.passed, bounded.witness, bounded.examined
        )
        assert deep.elapsed < 1.0


def test_designated_witness_revalidates_even_if_not_reported(sep2, sep3):
    for sep in (sep2, sep3):
        witness = sep.expected_d2_witness()
        assert revalidate_witness(
            sep.structure, "d2", {"n": sep.n}, witness
        )


def test_d2_witness_premise_by_hand(sep2):
    """Independently re-derive the level-2 violation on the 12-element
    separator: every selector sum bounds one of the parity products."""
    cs = sep2.structure
    lattice = cs.lattice
    a, b = sep2.odd_product, sep2.even_product
    pairs = sep2.literal_pairs
    for f in range(4):
        s = lattice.carrier[pairs[0][f & 1]] | lattice.carrier[pairs[1][(f >> 1) & 1]]
        s_idx = lattice.index[s]
        assert lattice.leq(a, s_idx) or lattice.leq(b, s_idx)
    assert cs.contact.related(a, b)


def test_decide_d2_all_reports_least_level(sep2):
    verdict = decide_d2_all(sep2.structure)
    assert not verdict.passed
    assert verdict.params["least_failing_n"] == 2


def test_d2_all_equals_level_one_with_single_pair(ps2):
    # the diamond with overlap has exactly one non-contact pair
    assert len(ps2.contact.noncontact_pairs()) == 1
    assert decide_d2_all(ps2).passed == check_d2(ps2, 1).passed


def test_d2_monotone_in_level(m3, ps2, sep2):
    for cs in (m3, ps2, sep2.structure):
        passed = [check_d2(cs, n).passed for n in range(1, 4)]
        for earlier, later in zip(passed, passed[1:]):
            assert earlier or not later  # once failing, stays failing


def test_d2_levels_past_the_failing_one_keep_failing(sep2):
    # The level-2 separator passes level 1 and fails levels 2 and 3 with the
    # same level-2 witness: a level above n repeats the level-n fail.
    verdicts = [check_d2(sep2.structure, n) for n in range(1, 4)]
    assert [v.outcome for v in verdicts] == ["pass", "fail", "fail"]
    assert verdicts[0].witness is None
    assert verdicts[1].witness == verdicts[2].witness
    assert len(verdicts[1].witness.pairs) == 2


def test_naive_agrees_with_bucketed(m3, ps2, ps3, sep2):
    for cs in (m3, ps2, ps3, sep2.structure):
        for n in (1, 2):
            assert check_d2(cs, n).passed == check_d2_naive(cs, n).passed


def test_naive_witness_revalidates_after_pair_cleanup(m3):
    verdict = check_d2_naive(m3, 2)
    if not verdict.passed:
        w = verdict.witness
        roles = dict(w.elements)
        assert all(not m3.contact.related(x, y) for x, y in w.pairs)
        assert m3.contact.related(roles["a"], roles["b"])


# ---------------------------------------------------------------------------
# d2 minus


def test_d2_minus_follows_from_d1(ps3, sep2, sep3):
    for cs in (ps3, sep2.structure, sep3.structure):
        assert check_d1(cs).passed
        assert check_d2_minus(cs).passed


def test_d2_minus_vacuous_without_pairs(m3):
    lattice = m3.lattice
    cs = ContactStructure(lattice, contact_all_except(lattice.size, []))
    assert check_d2_minus(cs).passed


def naive_d2_minus_level(cs, n):
    """Oracle transcription of the one-sided schema at level n: ordered
    tuples of ordered unrelated pairs, repeats and zero components included,
    with the first pair distinguished (its first component bounds b on the
    selectors picking it, its second bounds a on the others)."""
    lattice, rel = cs.lattice, cs.contact
    size = lattice.size
    unrelated = [
        (x, y)
        for x in range(size)
        for y in range(size)
        if not rel.related(x, y)
    ]

    def scan(depth, tuples):
        if depth == n:
            sums = {}
            for f in range(1 << n):
                acc = 0
                for i, (x, y) in enumerate(tuples):
                    acc |= lattice.carrier[y if (f >> i) & 1 else x]
                sums[f] = lattice.index[acc]
            for a in range(size):
                for b in range(size):
                    if not rel.related(a, b):
                        continue
                    ok = True
                    for f, s in sums.items():
                        need_b = (f & 1) == 0  # selector picks the first
                        if need_b and not lattice.leq(b, s):
                            ok = False
                            break
                        if not need_b and not lattice.leq(a, s):
                            ok = False
                            break
                    if ok:
                        return False
            return True
        for pair in unrelated:
            if not scan(depth + 1, tuples + [pair]):
                return False
        return True

    return scan(0, [])


def test_d2_minus_matches_naive_transcription(ps2, ps3, m3):
    from contactlab.enumeration import classify_corpus

    structures = [r.structure for r in classify_corpus(4)] + [ps2, ps3, m3]
    for cs in structures:
        depth = len(cs.contact.noncontact_pairs()) + 1
        naive = all(naive_d2_minus_level(cs, n) for n in range(1, min(depth, 3) + 1))
        production = check_d2_minus(cs).passed
        if not production:
            # production may find violations at levels the bounded naive
            # scan does not reach; witnesses are checked separately
            continue
        assert naive == production


def test_all_failing_verdicts_revalidate_small_corpus():
    from contactlab.enumeration import classify_corpus

    checkers = [
        ("weak-contact", {}, check_weak_contact),
        ("add", {}, check_additive),
        ("d1", {}, check_d1),
        ("d1plus", {"n": 2}, lambda cs: check_d1_plus(cs, 2)),
        ("d2", {"n": 1}, lambda cs: check_d2(cs, 1)),
        ("d2", {"n": 2}, lambda cs: check_d2(cs, 2)),
        ("d2minus", {}, check_d2_minus),
        ("d2all", {}, decide_d2_all),
    ]
    for record in classify_corpus(5):
        cs = record.structure
        for axiom, params, run in checkers:
            verdict = run(cs)
            if not verdict.passed:
                assert revalidate_witness(cs, axiom, params, verdict.witness), (
                    axiom,
                    params,
                    record.key,
                )


def test_d2_minus_witness_revalidates_when_failing():
    # search the small corpus for a d1-failing, d2minus-failing structure
    from contactlab.enumeration import classify_corpus

    hits = [
        r
        for r in classify_corpus(5)
        if not r.profile.d1 and not r.profile.d2_minus
    ]
    assert hits, "corpus scan: expected d1-failing d2minus-failing structures"
    for record in hits:
        verdict = check_d2_minus(record.structure)
        assert not verdict.passed
        assert revalidate_witness(record.structure, "d2minus", {}, verdict.witness)


# ---------------------------------------------------------------------------
# profiles


def test_profile_of_separator(sep2):
    profile = profile_of(sep2.structure, 2)
    assert profile.weak_contact
    assert profile.d1
    assert profile.d2 == (True, False)
    assert not profile.d2_all
    assert profile.d2_all_least_failing == 2
    # each element has at most one non-neighbour, so the separator itself is
    # additive; only its ambient extension fails additivity
    assert profile.additive


def test_profile_of_powerset(ps3):
    profile = profile_of(ps3)
    assert profile.additive and profile.d1 and profile.d2_all
    assert all(profile.d2)
    assert profile.d2_minus


def test_profile_of_two_element_chain():
    lattice = join_closure(1, [1])
    cs = ContactStructure(lattice, contact_from_related_pairs(2, []))
    profile = profile_of(cs)
    assert profile.additive and profile.d1 and profile.d2_all and profile.d2_minus
    assert all(profile.d2)


def test_profile_levels_beyond_pair_count_pass(ps2):
    # one non-contact pair, no violation at level 1: all levels pass
    profile = profile_of(ps2, 4)
    assert profile.d2 == (True, True, True, True)


def test_profile_d1_agrees_with_check_d1_on_every_contact_to_size_six(ps2):
    # profile_of reads d1 off its own d1+ scan, whatever its depth
    with pytest.raises(ValueError):
        profile_of(ps2, 0)
    failing = 0
    for lattice in enumerate_semilattices(6):
        for relation in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, relation)
            d1 = check_d1(cs).passed
            failing += not d1
            for depth in (1, 3):
                assert profile_of(cs, depth).d1 == d1
    assert failing


def test_verdict_serialization_roundtrip(m3):
    verdict = check_d1(m3)
    payload = verdict.to_json()
    assert payload["verdict"] == "fail"
    restored = Witness.from_json(payload["witness"])
    assert restored == verdict.witness
