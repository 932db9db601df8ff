"""Core algebra: bit-vector operations, semilattices, contacts.

Expected values marked by hand were derived with the independent oracles in
this file (itertools-based closure, scan-based meets) before being frozen.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from contactlab.axioms import check_weak_contact
from contactlab.core import (
    CapExceededError,
    ContactStructure,
    FiniteJoinSemilattice,
    FreeBooleanAlgebra,
    full_mask,
    iter_bits,
    join_closure,
    WIDTH_CAP,
    overlap_contact,
)
from scan_oracles import generator_indices


def brute_union_closure(generators):
    """Oracle: close under unions by enumerating all generator subsets."""
    out = {0}
    for r in range(1, len(generators) + 1):
        for subset in combinations(generators, r):
            acc = 0
            for g in subset:
                acc |= g
            out.add(acc)
    return tuple(sorted(out))


def brute_meet(lattice, x, y):
    """Oracle: the maximum among all common lower bounds, by full scan."""
    lower = [
        i
        for i in range(lattice.size)
        if lattice.leq(i, x) and lattice.leq(i, y)
    ]
    best = max(lower, key=lambda i: lattice.carrier[i].bit_count())
    assert all(lattice.leq(i, best) for i in lower)
    return best


# ---------------------------------------------------------------------------
# free Boolean algebra


def test_free_algebra_two_generators_bit_exact():
    ba = FreeBooleanAlgebra.build(2)
    # valuation order (00),(01),(10),(11); generator i collects coordinate-i=1
    assert ba.literal(1, 0) == 0b1100
    assert ba.literal(2, 0) == 0b1010
    assert ba.literal(1, 1) == 0b0011
    assert ba.literal(2, 1) == 0b0101


def test_free_algebra_one_generator():
    ba = FreeBooleanAlgebra.build(1)
    assert ba.literal(1, 0) == 0b10
    assert ba.literal(1, 1) == 0b01


def test_free_algebra_products_partition():
    for n in range(1, 7):
        ba = FreeBooleanAlgebra.build(n)
        seen = 0
        for g in range(1 << n):
            product = ba.full
            for i in range(1, n + 1):
                product &= ba.literal(i, (g >> (n - i)) & 1)
            assert product != 0
            assert product & seen == 0
            seen |= product
        assert seen == ba.full


def test_complement():
    ba = FreeBooleanAlgebra.build(2)
    assert ba.complement(0) == ba.full
    assert ba.complement(ba.literal(1, 0)) == ba.literal(1, 1)
    with pytest.raises(ValueError):
        ba.complement(1 << ba.width)


def test_width_cap_default_and_override():
    assert WIDTH_CAP == 1024
    FreeBooleanAlgebra.build(10)
    with pytest.raises(CapExceededError):
        FreeBooleanAlgebra.build(11)


def test_literal_bounds():
    ba = FreeBooleanAlgebra.build(2)
    with pytest.raises(IndexError):
        ba.literal(3, 0)
    with pytest.raises(IndexError):
        ba.literal(1, 2)


# ---------------------------------------------------------------------------
# join semilattices


def test_join_neutral_and_idempotent(sep2):
    lattice = sep2.structure.lattice
    for x in range(lattice.size):
        assert lattice.join(0, x) == x
        assert lattice.join(x, x) == x


def test_join_of_generators_bit_exact():
    ba = FreeBooleanAlgebra.build(2)
    lattice = join_closure(4, [ba.literal(1, 0), ba.literal(2, 0)])
    j = lattice.join(
        lattice.index[ba.literal(1, 0)], lattice.index[ba.literal(2, 0)]
    )
    assert lattice.carrier[j] == 0b1110  # {01, 10, 11}


def test_leq_examples():
    ba = FreeBooleanAlgebra.build(2)
    c10, c20, c21 = ba.literal(1, 0), ba.literal(2, 0), ba.literal(2, 1)
    lattice = join_closure(4, [c10, c20, c21])
    i10, i20, i21 = (lattice.index[m] for m in (c10, c20, c21))
    assert lattice.leq(0, i10)
    assert lattice.leq(i10, lattice.join(i10, i20))
    assert not lattice.leq(i10, i21)  # {10,11} not within {00,10}


def test_meet_is_glb_everywhere(sep2, ps3):
    for cs in (sep2.structure, ps3):
        lattice = cs.lattice
        for x in range(lattice.size):
            for y in range(lattice.size):
                assert lattice.meet(x, y) == brute_meet(lattice, x, y)


def test_meet_in_full_powerset_is_intersection(ps3):
    lattice = ps3.lattice
    for x in range(lattice.size):
        for y in range(lattice.size):
            got = lattice.carrier[lattice.meet(x, y)]
            assert got == lattice.carrier[x] & lattice.carrier[y]


def test_meet_of_complementary_atoms_is_zero(sep2):
    lattice = sep2.structure.lattice
    g1, cg1 = sep2.literal_pairs[0]
    assert lattice.meet(g1, cg1) == 0


def test_join_closure_trivial_and_small():
    assert join_closure(4, []).carrier == (0,)
    lattice = join_closure(2, [0b01, 0b10])
    assert lattice.carrier == (0, 1, 2, 3)


def test_join_closure_matches_brute_oracle():
    ba = FreeBooleanAlgebra.build(2)
    gens = [
        ba.literal(1, 0),
        ba.literal(1, 1),
        ba.literal(2, 0),
        ba.literal(2, 1),
        0b0110,
        0b1001,
    ]
    lattice = join_closure(4, gens)
    assert lattice.carrier == brute_union_closure(gens)
    assert lattice.size == 12
    by_count = {}
    for bits in lattice.carrier:
        by_count[bits.bit_count()] = by_count.get(bits.bit_count(), 0) + 1
    assert by_count == {0: 1, 2: 6, 3: 4, 4: 1}


def test_carrier_validation():
    with pytest.raises(ValueError):
        FiniteJoinSemilattice(2, (1, 2))  # no empty set
    with pytest.raises(ValueError):
        FiniteJoinSemilattice(2, (0, 2, 1))  # unsorted
    with pytest.raises(ValueError):
        FiniteJoinSemilattice(2, (0, 1, 2))  # 1|2 missing


def test_atoms():
    ps = FiniteJoinSemilattice(3, tuple(range(8)))
    assert [ps.carrier[a] for a in ps.atoms()] == [1, 2, 4]
    assert FiniteJoinSemilattice(0, (0,)).atoms() == ()


def test_separator_atoms_are_designated(sep2):
    lattice = sep2.structure.lattice
    minimal = []
    for i in range(1, lattice.size):  # oracle: direct minimality scan
        if not any(
            j != i and j != 0 and lattice.leq(j, i) for j in range(lattice.size)
        ):
            minimal.append(i)
    assert tuple(minimal) == lattice.atoms()
    assert set(minimal) == set(generator_indices(sep2))
    assert len(minimal) == 6


# ---------------------------------------------------------------------------
# overlap contact


def test_overlap_reflexive_and_examples(ps2):
    rel = ps2.contact
    for i in range(1, ps2.size):
        assert rel.related(i, i)
    lattice = ps2.lattice
    one = lattice.index[0b01]
    both = lattice.index[0b11]
    assert rel.related(one, both)
    assert not rel.related(one, lattice.index[0b10])


def test_overlap_on_separator_carrier(sep2):
    lattice = sep2.structure.lattice
    ov = overlap_contact(lattice)
    g1, _ = sep2.literal_pairs[0]
    g2, _ = sep2.literal_pairs[1]
    # bit intersection {11} is not in the carrier; oracle scan over elements
    assert not any(
        lattice.leq(p, g1) and lattice.leq(p, g2) for p in range(1, lattice.size)
    )
    assert not ov.related(g1, g2)


def test_overlap_always_weak_contact(sep3, ps3, m3):
    for cs in (sep3.structure, ps3, m3):
        ov = ContactStructure(cs.lattice, overlap_contact(cs.lattice))
        assert check_weak_contact(ov).passed


# ---------------------------------------------------------------------------
# property tests


small_families = st.lists(
    st.integers(min_value=0, max_value=31), min_size=0, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(small_families)
def test_semilattice_laws_hold(gens):
    lattice = join_closure(5, gens)
    n = lattice.size
    for x in range(n):
        assert lattice.join(x, x) == x
        assert lattice.join(0, x) == x
        for y in range(n):
            assert lattice.join(x, y) == lattice.join(y, x)
            for z in range(n):
                assert lattice.join(lattice.join(x, y), z) == lattice.join(
                    x, lattice.join(y, z)
                )


@settings(max_examples=60, deadline=None)
@given(small_families)
def test_join_is_least_upper_bound(gens):
    lattice = join_closure(5, gens)
    for x in range(lattice.size):
        for y in range(lattice.size):
            j = lattice.join(x, y)
            assert lattice.leq(x, j) and lattice.leq(y, j)
            for u in range(lattice.size):
                if lattice.leq(x, u) and lattice.leq(y, u):
                    assert lattice.leq(j, u)


@settings(max_examples=40, deadline=None)
@given(small_families)
def test_overlap_satisfies_weak_contact_invariants(gens):
    lattice = join_closure(5, gens)
    cs = ContactStructure(lattice, overlap_contact(lattice))
    assert check_weak_contact(cs).passed


@settings(max_examples=40, deadline=None)
@given(small_families)
def test_meet_against_oracle(gens):
    lattice = join_closure(5, gens)
    for x in range(lattice.size):
        for y in range(lattice.size):
            assert lattice.meet(x, y) == brute_meet(lattice, x, y)


def test_iter_bits_and_full_mask():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []
    assert full_mask(0) == 0
    assert full_mask(4) == 15
