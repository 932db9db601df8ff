"""Enumeration: class counts, contact generation, iso keys, corpus findings."""

import hashlib
import pickle
from collections import Counter
from itertools import islice, permutations

import pytest

from contactlab import enumeration
from contactlab.axioms import (
    check_additive,
    check_d1,
    check_d1_plus,
    check_d2,
    check_d2_minus,
    check_weak_contact,
    revalidate_witness,
)
from contactlab.core import (
    CapExceededError,
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    contact_all_except,
    iter_bits,
    overlap_contact,
)
from contactlab.enumeration import (
    _class_respecting_perms,
    _classify_lattice,
    _extend_lattices,
    _realize,
    classify_corpus,
    corpus_implications,
    enumerate_contacts,
    enumerate_semilattices,
    iso_class_key,
)
from contactlab.representation import (
    Refusal,
    Representation,
    decide_overlap_representable,
    decide_weak_representable,
)
from scan_oracles import (
    _automorphisms,
    apply_perm_reference,
    automorphisms_by_search,
    burnside_class_counts,
    check_d2_naive,
    contacts_by_filter,
    count_semilattice_tables,
    find_minimal_separators,
    gated_check_d2_minus,
    iso_class_key_reference,
    lattices_by_poset_growth,
)


def brute_force_contacts(lattice):
    """Oracle: all symmetric relations on nonzero pairs, filtered by the
    weak-contact checker."""
    nonzero_pairs = [
        (i, j)
        for i in range(1, lattice.size)
        for j in range(i, lattice.size)
    ]
    valid = []
    for mask in range(1 << len(nonzero_pairs)):
        rows = [0] * lattice.size
        for p, (i, j) in enumerate(nonzero_pairs):
            if (mask >> p) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        rel = ContactRelation(lattice.size, tuple(rows))
        if check_weak_contact(ContactStructure(lattice, rel)).passed:
            valid.append(rel.rows)
    return valid


def join_table_encoding(cs):
    """Reference canonical form: the k x k join table, read through
    ``lattice.join``, and the contact rows, minimized over the relabellings
    within groups of equal (up-count, down-count, row-count)."""
    lattice, rel = cs.lattice, cs.contact
    k = lattice.size
    up = lattice.leq_masks
    down = lattice.below_masks
    inv = [
        (up[i].bit_count(), down[i].bit_count(), rel.rows[i].bit_count())
        for i in range(k)
    ]
    join = lattice.join
    best = None
    for p in _class_respecting_perms(inv):
        q = [0] * k
        for old, new in enumerate(p):
            q[new] = old
        enc = [k]
        for i in range(k):
            oi = q[i]
            for j in range(k):
                enc.append(p[join(oi, q[j])])
        for i in range(k):
            m = 0
            for j in iter_bits(rel.rows[q[i]]):
                m |= 1 << p[j]
            enc.append(m)
        t = tuple(enc)
        if best is None or t < best:
            best = t
    return best


def key_dedupe(lattice):
    """Reference dedupe: key every contact, keep the first of each key."""
    seen, out = set(), []
    for relation in enumerate_contacts(lattice):
        key = iso_class_key(ContactStructure(lattice, relation))
        if key not in seen:
            seen.add(key)
            out.append((relation.rows, key))
    return out


def m_k(k):
    """M_k: zero, k pairwise incomparable atoms, and a top that is the join
    of any two of them."""
    full = (1 << k) - 1
    return FiniteJoinSemilattice(
        k, tuple(sorted([0, full] + [full ^ (1 << i) for i in range(k)]))
    )


def p3_with_atoms_apart():
    """The powerset of three points with its three atoms pairwise out of
    contact and every other nonzero pair in contact."""
    lattice = FiniteJoinSemilattice(3, tuple(range(8)))
    return ContactStructure(
        lattice, contact_all_except(8, [(1, 2), (1, 4), (2, 4)])
    )


def level_three_separator():
    """The 13-element level-3 separator: P(4) minus {0x1, 0x4, 0x5}, with the
    down-closure of {0x2, 0xd}, {0x7, 0x8} and {0x6, 0x9} out of contact."""
    carrier = tuple(m for m in range(16) if m not in (0x1, 0x4, 0x5))
    index = {m: i for i, m in enumerate(carrier)}
    below = [[x for x in carrier if x and x & top == x] for top in range(16)]
    pairs = {
        tuple(sorted((index[x], index[y])))
        for a, b in ((0x2, 0xD), (0x7, 0x8), (0x6, 0x9))
        for x in below[a]
        for y in below[b]
    }
    lattice = FiniteJoinSemilattice(4, carrier)
    return ContactStructure(lattice, contact_all_except(len(carrier), sorted(pairs)))


def relabel_points(cs, sigma):
    """The same structure on the family whose ground point i is sigma[i]."""
    def image(bits):
        return sum(1 << sigma[i] for i in iter_bits(bits))

    carrier = sorted(cs.lattice.carrier, key=image)
    lattice = FiniteJoinSemilattice(cs.lattice.width, tuple(map(image, carrier)))
    new = {cs.lattice.carrier.index(bits): i for i, bits in enumerate(carrier)}
    rows = [0] * cs.size
    for i, row in enumerate(cs.contact.rows):
        rows[new[i]] = sum(1 << new[j] for j in iter_bits(row))
    return ContactStructure(lattice, ContactRelation(cs.size, tuple(rows)))


def test_class_counts_match_known_lattice_numbers():
    by_size = {}
    for lattice in enumerate_semilattices(7):
        by_size[lattice.size] = by_size.get(lattice.size, 0) + 1
    assert [by_size.get(k, 0) for k in range(1, 8)] == [1, 1, 1, 2, 5, 15, 53]


def test_counts_match_table_oracle():
    by_size = {}
    for lattice in enumerate_semilattices(5):
        by_size[lattice.size] = by_size.get(lattice.size, 0) + 1
    for size in range(1, 6):
        assert by_size.get(size, 0) == count_semilattice_tables(size)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_semilattices(10))
    with pytest.raises(CapExceededError):
        count_semilattice_tables(6)


def test_lattice_growth_matches_poset_growth():
    # Same canonical lattices per size as growing every poset and keeping
    # the lattices, and the same carriers in the same order.
    by_poset_growth = lattices_by_poset_growth(8)
    lattices = [(1,)]
    for size, expected in enumerate(by_poset_growth, start=1):
        if size > 1:
            lattices = _extend_lattices(lattices)
        assert lattices == expected
    carriers = [
        (lattice.width, lattice.carrier) for lattice in enumerate_semilattices(8)
    ]
    realized = [_realize(le) for per_size in by_poset_growth for le in per_size]
    assert carriers == [(lattice.width, lattice.carrier) for lattice in realized]


def lattices_of_size(size):
    lattices = [(1,)]
    for _ in range(size - 1):
        lattices = _extend_lattices(lattices)
    return lattices


def test_lattice_growth_gives_size_nine():
    lattices = lattices_of_size(9)
    assert len(lattices) == 1078  # OEIS A006966(9)
    # Their contact classes, counted from Aut(L) alone: the size-9 corpus's
    # count, which no Tier-1 test enumerates (20 to 40 s).
    assert sum(burnside_class_counts(map(_realize, lattices))) == 110833


@pytest.mark.slow
def test_lattice_growth_past_the_cap_gives_size_ten():
    lattices = lattices_of_size(10)
    assert len(lattices) == 5994  # OEIS A006966(10)
    assert sum(burnside_class_counts(map(_realize, lattices))) == 3290307


def test_canonical_labelling_is_pinned():
    # The corpus files are written in this labelling, so any drift in it
    # changes their bytes.
    carriers = [
        (lattice.width, lattice.carrier) for lattice in enumerate_semilattices(8)
    ]
    digest = hashlib.sha256(repr(carriers).encode()).hexdigest()
    assert digest == (
        "42001f748cb3b1818c347fb07dea809e770bb3898fbcb1ad37bbe4b0d027be84"
    )


def test_realized_carriers_are_valid_families():
    for lattice in enumerate_semilattices(5):
        # re-validating constructor: sortedness, zero, union closure
        FiniteJoinSemilattice(lattice.width, lattice.carrier)


def test_no_two_emitted_lattices_isomorphic():
    keys = set()
    for lattice in enumerate_semilattices(6):
        key = iso_class_key(
            ContactStructure(lattice, overlap_contact(lattice))
        )
        assert key not in keys
        keys.add(key)


def test_single_contact_on_chains():
    chains = [lat for lat in enumerate_semilattices(3)]
    for lattice in chains:
        contacts = list(enumerate_contacts(lattice))
        assert len(contacts) == 1  # overlap forces everything on a chain


def test_contacts_match_brute_force_oracle():
    for lattice in enumerate_semilattices(4):
        generated = sorted(rel.rows for rel in enumerate_contacts(lattice))
        assert generated == sorted(brute_force_contacts(lattice))


def test_contacts_all_distinct_and_valid_size5():
    for lattice in enumerate_semilattices(5):
        seen = set()
        for rel in enumerate_contacts(lattice):
            assert rel.rows not in seen
            seen.add(rel.rows)
            assert check_weak_contact(ContactStructure(lattice, rel)).passed


def test_upset_walk_matches_subset_filter_to_size_eight():
    # Same contacts in the same ascending mask order as filtering every
    # subset of the non-overlapping pairs.
    contacts = 0
    for lattice in enumerate_semilattices(8):
        walked = list(enumerate_contacts(lattice))
        assert walked == contacts_by_filter(lattice)
        contacts += len(walked)
    assert contacts == 54888


def test_all_pairs_relation_emitted_last():
    for lattice in enumerate_semilattices(4):
        contacts = list(enumerate_contacts(lattice))
        last = contacts[-1]
        for i in range(1, lattice.size):
            for j in range(1, lattice.size):
                assert last.related(i, j)


def test_iso_key_invariant_under_relabelling(ps2, m3):
    for cs in (ps2, m3, level_three_separator()):
        base = iso_class_key(cs)
        k = cs.size
        for sigma in permutations(range(cs.lattice.width)):
            assert iso_class_key(relabel_points(cs, sigma)) == base
        for perm in islice(permutations(range(1, k)), 8):
            p = [0] + list(perm)
            # permuted structure realized on the same family but relabelled
            # contact; lattice must be rebuilt consistently, so permute the
            # contact matrix only when the permutation is an automorphism
            rows = [0] * k
            ok = True
            for i in range(k):
                for j in range(k):
                    if cs.lattice.leq(i, j) != _leq_after(cs.lattice, p, i, j):
                        ok = False
            if not ok:
                continue
            for i in range(k):
                for j in range(k):
                    if cs.contact.related(i, j):
                        rows[p[i]] |= 1 << p[j]
            permuted = ContactStructure(
                cs.lattice, ContactRelation(k, tuple(rows))
            )
            assert iso_class_key(permuted) == base


def _leq_after(lattice, p, i, j):
    return lattice.leq(p[i], p[j])


def test_iso_key_partition_matches_join_table_reference():
    # Same classes as the join-table encoding on every contact up to size 7,
    # across lattices too: each key meets exactly one reference and back.
    keys, references, both = set(), set(), set()
    contacts = 0
    for lattice in enumerate_semilattices(7):
        for relation in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, relation)
            key, reference = iso_class_key(cs), join_table_encoding(cs)
            keys.add(key)
            references.add(reference)
            both.add((key, reference))
            contacts += 1
    assert contacts == 2043
    assert len(keys) == len(references) == len(both) == 558


def test_iso_key_matches_one_stage_reference(sep2):
    structures = [
        ContactStructure(lattice, relation)
        for lattice in enumerate_semilattices(7)
        for relation in enumerate_contacts(lattice)
    ]
    assert len(structures) == 2043
    for cs in structures + [sep2.structure]:
        assert iso_class_key(cs) == iso_class_key_reference(cs)


def test_automorphisms_match_per_bit_relabelling(monkeypatch):
    lattices = list(enumerate_semilattices(7))
    assert len(lattices) == 78
    got = [_automorphisms(lattice) for lattice in lattices]
    monkeypatch.setattr(enumeration, "_apply_perm", apply_perm_reference)
    assert got == [_automorphisms(lattice) for lattice in lattices]


def test_automorphisms_match_search_over_all_permutations():
    lattices = list(enumerate_semilattices(7))
    assert len(lattices) == 78
    for lattice in lattices:
        assert sorted(_automorphisms(lattice)) == automorphisms_by_search(lattice)


@pytest.mark.slow
def test_automorphisms_match_search_over_all_permutations_at_size_eight():
    lattices = [lattice for lattice in enumerate_semilattices(8) if lattice.size == 8]
    assert len(lattices) == 222
    for lattice in lattices:
        assert sorted(_automorphisms(lattice)) == automorphisms_by_search(lattice)


@pytest.fixture(scope="module")
def chunks_to_eight():
    """Each lattice up to size 8 with its corpus records at depth 1."""
    provenance = {"max_size": 8, "d2_max": 1}
    return [
        (lattice, _classify_lattice(lattice, 1, provenance))
        for lattice in enumerate_semilattices(8)
    ]


def test_burnside_counts_match_the_corpus_per_lattice(chunks_to_eight):
    # Classes counted from Aut(L) alone, with no dedupe and no key.
    counts = burnside_class_counts(enumerate_semilattices(8))
    assert counts == [len(records) for _, records in chunks_to_eight]
    by_size = Counter()
    for (lattice, _), count in zip(chunks_to_eight, counts, strict=True):
        by_size[lattice.size] += count
    assert [by_size[size] for size in range(1, 9)] == [1, 1, 1, 3, 11, 61, 480, 5861]


@pytest.mark.slow
def test_orbit_keys_match_one_stage_reference_to_size_eight(chunks_to_eight):
    classes = 0
    for _, records in chunks_to_eight:
        for record in records:
            assert record.key == iso_class_key_reference(record.structure)
        classes += len(records)
    assert classes == 6419


def test_orbit_dedupe_matches_key_dedupe():
    # Same representatives, keys and order as keying every contact, on every
    # lattice up to size 7.
    provenance = {"max_size": 7, "d2_max": 1}
    classes = 0
    for lattice in enumerate_semilattices(7):
        records = _classify_lattice(lattice, 1, provenance)
        got = [(r.structure.contact.rows, r.key) for r in records]
        assert got == key_dedupe(lattice)
        classes += len(got)
    assert classes == 558


def test_automorphism_groups():
    chain = FiniteJoinSemilattice(3, (0b000, 0b001, 0b011, 0b111))
    p3 = FiniteJoinSemilattice(3, tuple(range(8)))
    for lattice, order in ((chain, 1), (p3, 6), (m_k(5), 120)):
        automorphisms = _automorphisms(lattice)
        assert len(automorphisms) + 1 == order
        identity = list(range(lattice.size))
        up = lattice.leq_masks
        for p in automorphisms:
            assert p != identity and sorted(p) == identity
            assert all(
                (up[p[i]] >> p[j]) & 1 == (up[i] >> j) & 1
                for i in range(lattice.size)
                for j in range(lattice.size)
            )


@pytest.mark.parametrize("k, graphs", [(3, 4), (4, 11), (5, 34), (6, 156)])
def test_classes_on_m_k_are_unlabelled_graphs(k, graphs):
    # The contacts on M_k are the graphs on its k atoms, so its classes are
    # the unlabelled graphs on k vertices (OEIS A000088).
    provenance = {"max_size": k + 2, "d2_max": 1}
    assert len(_classify_lattice(m_k(k), 1, provenance)) == graphs


def test_iso_key_separates_structures(ps2):
    lattice = ps2.lattice
    keys = {iso_class_key(ContactStructure(lattice, rel)) for rel in enumerate_contacts(lattice)}
    assert len(keys) == 2


def test_classify_corpus_deterministic_and_thread_independent():
    single = classify_corpus(4)
    again = classify_corpus(4)
    assert [r.key for r in single] == [r.key for r in again]
    threaded = classify_corpus(4, threads=2)
    assert [r.key for r in single] == [r.key for r in threaded]
    assert [r.profile for r in single] == [r.profile for r in threaded]


def test_worker_chunks_pickle_without_search_caches():
    # What a worker sends back per lattice: records whose structures carry
    # their defining fields only.  152,602 bytes is the size to carrier 7
    # with every cached search result stripped by hand.
    provenance = {"max_size": 7, "d2_max": 3}
    total = 0
    for lattice in enumerate_semilattices(7):
        chunk = _classify_lattice(lattice, 3, provenance)
        data = pickle.dumps(chunk)
        total += len(data)
        for record, copy in zip(chunk, pickle.loads(data), strict=True):
            cs = copy.structure
            assert cs == record.structure and copy.key == record.key
            assert cs.d2_holds_to == 0
            assert not {
                "canonical_images", "image_collision", "disjoint_images",
                "weak_contact_violation",
            } & set(vars(cs))
            assert not {"leq_masks", "below_masks"} & set(vars(cs.lattice))
        assert len({id(copy.structure.lattice) for copy in pickle.loads(data)}) <= 1
    assert total <= 152_602


def test_corpus_profiles_revalidate():
    # Every flag find_minimal_separators reads agrees with its checker on a
    # structure no search has run on yet, whichever process profiled it.
    for threads in (1, 2):
        for record in classify_corpus(5, threads=threads):
            cs = ContactStructure(record.structure.lattice, record.structure.contact)
            profile = record.profile
            assert profile.d1 == check_d1(cs).passed
            for level in range(1, 4):
                assert check_d1_plus(cs, level).passed == profile.d1
            for level, passed in enumerate(profile.d2, start=1):
                verdict = check_d2(cs, level)
                assert verdict.passed == passed
                if not passed:
                    assert revalidate_witness(
                        cs, "d2", {"n": level}, verdict.witness
                    )


def test_corpus_implications_all_hold_size5():
    report = corpus_implications(classify_corpus(5))
    assert {item["name"] for item in report} == {
        "d1-implies-d2minus",
        "overlap-and-d1-implies-d2all-and-add",
        "weak-representable-iff-d1",
        "overlap-representable-iff-d1-and-d2all",
    }
    for item in report:
        assert item["violations"] == []


def test_corpus_contains_d1_failures_at_size5():
    records = classify_corpus(5)
    failing = [r for r in records if not r.profile.d1]
    assert failing and min(r.structure.size for r in failing) == 5


def test_no_small_separator_exists():
    # recorded negative: nothing with carrier <= 5 passes d1 and level 1
    # while failing level 2, so the 12-element witness is not beaten here
    assert find_minimal_separators(5, 2) == []
    assert find_minimal_separators(5, 3) == []


def test_no_separator_below_carrier_eight():
    # recorded negative: no carrier <= 7 passes d1 and level 1 while
    # failing level 2
    assert find_minimal_separators(7, 2) == []


def test_thirteen_element_level_three_separator():
    cs = level_three_separator()
    assert cs.size == 13
    assert cs.contact.noncontact_pairs() == [
        (1, 5), (1, 6), (1, 9), (1, 10), (2, 5), (3, 5), (3, 6), (4, 5)
    ]
    for check in (check_weak_contact, check_additive, check_d1, check_d2_minus):
        assert check(cs).passed
    fresh = ContactStructure(cs.lattice, cs.contact)
    assert check_d2_minus(fresh)._replace(elapsed=0.0) == gated_check_d2_minus(
        fresh
    )._replace(elapsed=0.0)
    for level in (1, 2):
        assert check_d2(cs, level).passed and check_d2_naive(cs, level).passed
    verdict = check_d2(cs, 3)
    assert not verdict.passed and not check_d2_naive(cs, 3).passed
    assert verdict.witness.elements == (("a", 2), ("b", 9))
    assert verdict.witness.pairs == ((1, 9), (2, 5), (3, 6))
    assert revalidate_witness(cs, "d2", {"n": 3}, verdict.witness)
    assert isinstance(decide_weak_representable(cs), Representation)
    refusal = decide_overlap_representable(cs)
    assert isinstance(refusal, Refusal)
    assert (refusal.reason, refusal.elements) == ("uncovered-contact-pair", (2, 9))


def test_eight_element_level_two_separator():
    cs = p3_with_atoms_apart()
    assert check_weak_contact(cs).passed
    assert check_d1(cs).passed
    assert check_d2(cs, 1).passed and check_d2_naive(cs, 1).passed
    verdict = check_d2(cs, 2)
    assert not verdict.passed and not check_d2_naive(cs, 2).passed
    assert revalidate_witness(cs, "d2", {"n": 2}, verdict.witness)


@pytest.mark.slow
def test_minimal_level_two_separators_have_carrier_eight(monkeypatch):
    sizes = [lattice.size for lattice in enumerate_semilattices(8)]
    assert sizes.count(8) == 222  # OEIS A006966
    corpus = []
    classify = enumeration.classify_corpus

    def recording(*args, **kwargs):
        corpus.extend(classify(*args, **kwargs))
        return corpus

    monkeypatch.setattr(enumeration, "classify_corpus", recording)
    hits = find_minimal_separators(8, 2)
    assert len(corpus) == 6419
    assert len(hits) == 4 and all(r.structure.size == 8 for r in hits)
    assert iso_class_key(p3_with_atoms_apart()) in {r.key for r in hits}
    for record in hits:
        cs = record.structure
        assert check_d2_naive(cs, 1).passed
        verdict = check_d2(cs, 2)
        assert not verdict.passed and not check_d2_naive(cs, 2).passed
        assert revalidate_witness(cs, "d2", {"n": 2}, verdict.witness)


def test_corpus_record_json_shape():
    record = classify_corpus(2)[-1]
    payload = record.to_json()
    assert payload["size"] == record.structure.size
    assert payload["structure"]["version"] == 1
    assert set(payload["provenance"]) == {"max_size", "d2_max"}
    assert "d1_plus" not in payload["profile"]
