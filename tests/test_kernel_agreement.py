"""The d2 search, which applies the image test to each pair set's selector
sums, and the weak-contact routine, which marks violations from the smaller
side of the relation, agree with the scans they replace, and the d1+ and d2
searches, which resume above the levels earlier calls on the same structure
passed, give what the same call gives on a fresh one.

``scan_oracles.gated_first_d2_violation`` is the per-partner d2 scan behind
the same column test, and ``scan_oracles.check_weak_contact`` walks every
pair of the relation.  Verdicts, witnesses and profiles must match in full,
``examined`` included; only the wall-clock ``elapsed_s`` may differ.  The
weak-contact routine is checked on every relation of the smallest lattices,
every corruption of the contacts up to size 6, random closures, corrupted
separators up to n = 5 (one corruption per clause at n = 4 and 5), and for
the work it does: refusing the level-6 separator with one pair dropped
visits its rows and non-contact entries, not its 2.8M related entries.

The d2 walk tests only the column test's candidate pairs.  It must give
what ``scan_oracles.first_d2_violation_by_images``, the per-set kernel over
every element, gives: level, witness, ``examined`` and ``d2_holds_to``, on
every contact to size 7, on S_2-S_6 and on one-sided toggles of random
closures.  The ladders of S_7 and S_8 are pinned.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import scan_oracles
from contactlab import axioms, core
from contactlab.axioms import InvalidContactError, require_weak_contact
from contactlab.constructions import build_separator
from contactlab.core import (
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    contact_all_except,
)
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
        axioms.profile_of(cs, max(levels)).to_json(),
    )


def fresh(cs):
    """A copy of cs that no search has run on yet."""
    return ContactStructure(cs.lattice, cs.contact)


def assert_d2_agrees(cs, levels=(1, 2, 3)):
    # Calls from a level beyond the deepest checked down to level 1, each
    # resuming what the earlier ones scanned, give what they give on a
    # fresh copy.
    descending = range(max(levels) + 1, 0, -1)
    resumed = [_strip(axioms.check_d2(cs, n)) for n in descending]
    assert resumed == [_strip(axioms.check_d2(fresh(cs), n)) for n in descending]
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


def clause_corruptions(cs, pair):
    """One corruption per weak-contact clause, in scan order: a bit in
    row 0, a missing diagonal bit, the non-contact ``pair`` made related on
    one side only, and the two-sided drop of (top - 1, top)."""
    top = cs.lattice.top
    yield flipped(cs, 0, top, False)
    yield flipped(cs, top, top, False)
    yield flipped(cs, *pair, False)
    yield flipped(cs, top - 1, top, True)


@pytest.mark.parametrize("n", [4, 5])
def test_weak_contact_agrees_on_one_corruption_per_clause(n):
    sep = build_separator(n)
    kinds = []
    for bad in clause_corruptions(sep.structure, sep.literal_pairs[0]):
        assert_weak_contact_agrees(bad)
        kinds.append(axioms.check_weak_contact(bad).witness.kind)
    assert kinds == ["zero", "reflexivity", "symmetry", "extension"]


def test_refusal_visits_the_unrelated_entries_only(monkeypatch):
    # The level-6 separator with (top - 1, top) dropped has 2.8M related
    # entries and 7 non-contact pairs.  The refusal looks at the rows, not
    # at the related entries a pair-by-pair scan walks, and still names the
    # scan's first violation with the scan's count.
    cs = build_separator(6).structure
    top = cs.lattice.top
    bad = flipped(cs, top - 1, top, True)
    noncontact = len(bad.contact.noncontact_pairs())
    assert (top, noncontact) == (1675, 7)
    visited = 0
    iter_bits = core.iter_bits

    def counted(mask):
        nonlocal visited
        for k in iter_bits(mask):
            visited += 1
            yield k

    monkeypatch.setattr(core, "iter_bits", counted)
    monkeypatch.setattr(axioms, "iter_bits", counted)
    verdict = axioms.check_weak_contact(bad)
    assert verdict.witness.kind == "extension"
    assert dict(verdict.witness.elements) == {"a": 1674, "b": 1, "a1": 1674, "b1": 1675}
    assert verdict.examined == 5609550
    assert visited <= cs.size + 2 * noncontact
    with pytest.raises(InvalidContactError, match="extension violated"):
        require_weak_contact(bad)


def test_level_five_counters(sep5):
    verdict = axioms.check_d2(sep5.structure, 5)
    assert verdict.examined == 15680
    assert dict(verdict.witness.elements) == {"a": 24, "b": 58}
    assert axioms.check_weak_contact(sep5.structure).examined == 510535


def test_level_six_counters():
    verdict = axioms.check_d2(build_separator(6).structure, 6)
    assert verdict.examined == 105574
    assert dict(verdict.witness.elements) == {"a": 48, "b": 121}


def assert_top_level_is_the_column_test(cs):
    # The one set of all the non-contact pairs: every selector sum over it
    # is an admissible column or the top, and every admissible column lies
    # above one, so its disjoint relation is the column test's.
    lattice = cs.lattice
    sums = axioms._selector_sums(lattice, tuple(cs.contact.noncontact_pairs()))
    assert lattice.meets(sums, lattice.images_over(sums)) == cs.disjoint_images


def test_top_level_is_the_column_test_on_every_contact_to_size_seven():
    checked = 0
    for cs in small_contacts(7):
        assert_top_level_is_the_column_test(cs)
        checked += 1
    assert checked == 2043


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_top_level_is_the_column_test_on_separators(n):
    assert_top_level_is_the_column_test(build_separator(n).structure)


def test_one_d2_pass_examines_each_level_once(monkeypatch):
    # Levels 1..4 of the level-4 separator, one call each, report the
    # counts of separate scans, 736 + 1,618 + 2,206 + 2,218 = 6,778
    # elements, but evaluate 10 pair sets, the 6 + 4 of one pass from
    # level 2 (level 1 cannot fail on a weak contact and is only counted,
    # and level 4, all four pairs, is read off the column test), where
    # calls that each start afresh evaluate 0 + 6 + 10 + 10 = 26.
    evaluated = []

    def counted(lattice, combo):
        evaluated.append(combo)
        return selector_sums(lattice, combo)

    selector_sums = axioms._selector_sums
    monkeypatch.setattr(axioms, "_selector_sums", counted)
    cs = build_separator(4).structure
    verdicts = [axioms.check_d2(cs, n) for n in range(1, 5)]
    assert [v.examined for v in verdicts] == [736, 1618, 2206, 2218]
    assert [v.passed for v in verdicts] == [True, True, True, False]
    assert [v.params for v in verdicts] == [{"n": n} for n in range(1, 5)]
    assert len(evaluated) == len(set(evaluated)) == 10
    evaluated.clear()
    for n in range(1, 5):
        axioms.check_d2(fresh(cs), n)
    assert len(evaluated) == 26


def test_d2_level_one_holds_on_every_weak_contact():
    # Why the d2 walk starts at level 2 on a weak contact: if x and y each
    # bound a or b of a contact pair a d b, monotonicity gives x d y, so no
    # single non-contact pair (x, y) separates a contact pair.
    structures = [*small_contacts(7), *(build_separator(n).structure for n in (2, 3, 4))]
    for cs in structures:
        assert cs.is_weak_contact
        assert scan_oracles.first_d2_violation(cs, 1)[:2] == (None, None)
    assert len(structures) == 2046


def test_d2_level_one_can_fail_off_a_weak_contact():
    # c = 001 is in contact with itself and lies below x = 011 and y = 101,
    # which are not in contact: monotonicity fails, and d2 fails at level 1
    # with a = b = c.  The walk must not skip level 1 here.
    lattice = FiniteJoinSemilattice(3, (0b000, 0b001, 0b011, 0b101, 0b111))
    cs = ContactStructure(lattice, contact_all_except(5, [(2, 3)]))
    assert not cs.is_weak_contact
    verdict = axioms.check_d2(cs, 1)
    m, witness, examined = scan_oracles.gated_first_d2_violation(fresh(cs), 1)
    assert (m, dict(witness.elements), witness.pairs) == (1, {"a": 1, "b": 1}, ((2, 3),))
    assert (verdict.witness, verdict.examined) == (witness, examined)


def test_d2_level_one_agrees_on_corrupted_contacts():
    # Every one- and two-sided toggle of every contact up to size 6 that is
    # no longer a weak contact: the library's level-1 verdict is the gated
    # scan's, which starts at level 1, witness and count included.
    failing = 0
    for cs in small_contacts():
        for bad in corruptions(cs):
            if bad.is_weak_contact:
                continue
            verdict = axioms.check_d2(bad, 1)
            _, witness, examined = scan_oracles.gated_first_d2_violation(bad, 1)
            assert (verdict.witness, verdict.examined) == (witness, examined)
            failing += witness is not None
    assert failing == 2418


def _resumed_calls(cs):
    """Every level-bounded d1+ and d2 call on cs, then the unbounded ones,
    as (name, call) pairs; levels run to one past the pair count."""
    top = len(cs.contact.noncontact_pairs()) + 1
    calls = []
    for n in range(1, top + 1):
        calls.append((f"d1plus {n}", lambda c, n=n: _strip(axioms.check_d1_plus(c, n))))
        calls.append((f"d2 {n}", lambda c, n=n: _strip(axioms.check_d2(c, n))))
    calls.append(("d2all", lambda c: _strip(axioms.decide_d2_all(c))))
    calls.append(("profile", lambda c: axioms.profile_of(c).to_json()))
    return calls


def assert_resuming_is_invisible(cs):
    # Ascending, descending and interleaved (d2 from the top down while d1+
    # goes up, the unbounded calls in the middle) on one structure each:
    # every call equals the same call on a fresh copy, examined included.
    calls = _resumed_calls(cs)
    expected = {name: call(fresh(cs)) for name, call in calls}
    bounded, unbounded = calls[:-2], calls[-2:]
    d1plus, d2 = bounded[0::2], bounded[1::2]
    middle = len(d1plus) // 2
    interleaved = [
        call for pair in zip(d1plus, reversed(d2)) for call in pair
    ]
    interleaved[2 * middle:2 * middle] = unbounded
    orders = [calls, calls[::-1], interleaved]
    for order in orders:
        assert sorted(name for name, _ in order) == sorted(expected)
        structure = fresh(cs)
        for name, call in order:
            assert call(structure) == expected[name], name


def test_resumed_searches_agree_with_fresh_ones_on_every_contact_to_size_seven():
    checked = 0
    for cs in small_contacts(7):
        assert_resuming_is_invisible(cs)
        checked += 1
    assert checked == 2043


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_resumed_searches_agree_with_fresh_ones_on_separators(n):
    assert_resuming_is_invisible(build_separator(n).structure)


def d2_walks(cs, levels, walk):
    """(level, witness, examined, d2_holds_to afterwards) of ``walk`` at each
    level: one pass resuming on one copy of cs, then a fresh copy per level."""
    copies = [fresh(cs)] * len(levels) + [fresh(cs) for _ in levels]
    return [(*walk(copy, n), copy.d2_holds_to) for copy, n in zip(copies, levels * 2)]


def assert_candidates_agree(cs, levels):
    # The walk over the column test's candidate pairs gives what the
    # per-set kernel over every element gives.
    assert d2_walks(cs, levels, axioms._first_d2_violation) == d2_walks(
        cs, levels, scan_oracles.first_d2_violation_by_images
    )


def test_candidate_walk_agrees_on_every_contact_to_size_seven():
    checked = 0
    for cs in small_contacts(7):
        assert_candidates_agree(cs, (1, 2, 3, len(cs.contact.noncontact_pairs())))
        checked += 1
    assert checked == 2043


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_candidate_walk_agrees_on_separators(n):
    assert_candidates_agree(build_separator(n).structure, tuple(range(1, n + 1)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(overlap_closures(), st.data())
def test_candidate_walk_agrees_off_a_weak_contact(cs, data):
    # One-sided toggles: asymmetric relations, rows that are not up-closed,
    # a bit in row 0 or a missing diagonal bit.
    index = st.integers(min_value=0, max_value=cs.size - 1)
    i, j = data.draw(st.tuples(index, index))
    bad = flipped(cs, i, j, False)
    assert_candidates_agree(bad, (1, 2, 3, len(bad.contact.noncontact_pairs())))


def test_candidate_walk_with_no_candidate():
    # On the four-element Boolean algebra, 2 d 1 on one side only: the
    # column test fires on (2, 1), but no contact pair (a, b) with a <= b
    # has disjoint images, so the walk finds no witness at any level.
    lattice = FiniteJoinSemilattice(2, (0b00, 0b01, 0b10, 0b11))
    cs = flipped(ContactStructure(lattice, core.overlap_contact(lattice)), 2, 1, False)
    assert cs.contact.noncontact_pairs() == [(1, 2)]
    assert axioms._d2_violated(cs)
    assert_candidates_agree(cs, (1, 2))
    assert axioms._first_d2_violation(fresh(cs), 1) == (None, None, 7)


@pytest.mark.parametrize(
    "n, witness, examined",
    [(7, {"a": 96, "b": 248}, 687040), (8, {"a": 192, "b": 503}, 4366558)],
    ids=["7", "8"],
)
def test_separator_ladder(n, witness, examined):
    # d2 passes below level n and fails at n, one resuming call per level.
    cs = build_separator(n).structure
    verdicts = [axioms.check_d2(cs, k) for k in range(1, n + 1)]
    assert [v.passed for v in verdicts] == [True] * (n - 1) + [False]
    assert dict(verdicts[-1].witness.elements) == witness
    assert verdicts[-1].examined == examined
