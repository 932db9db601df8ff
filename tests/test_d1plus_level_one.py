"""d1 implies d1+ at every level, checked against the ungated walk.

If b <= a + s + x and b <= a + s + y for a non-contact pair (x, y) and
every selector sum s over the other pairs, d1 at a + s gives b <= a + s;
peeling the pairs off one at a time gives b <= a.  So d1+ fails first at
level 1 or never, and ``axioms.check_d1_plus`` is d1's level-1 scan at
every level.  ``scan_oracles.first_d1plus_violation`` walks every pair set
up to its bound, ungated, and must agree.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

import scan_oracles
from contactlab import axioms
from contactlab.core import ContactStructure, contact_all_except, join_closure
from contactlab.enumeration import enumerate_contacts, enumerate_semilattices


def assert_d1_decides_d1plus(cs, levels):
    d1 = axioms.check_d1(cs)
    for k in levels:
        m, witness, _ = scan_oracles.first_d1plus_violation(cs, k)
        assert m in (1, None), (k, m)
        verdict = axioms.check_d1_plus(cs, k)
        assert verdict.witness == witness, k
        assert (verdict.passed, verdict.examined) == (d1.passed, d1.examined), k
        assert d1.witness == (None if witness is None else witness._replace(kind="d1"))


def test_d1plus_fails_at_level_one_or_never_on_every_contact_to_size_seven():
    checked = failing = 0
    for lattice in enumerate_semilattices(7):
        for relation in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, relation)
            assert_d1_decides_d1plus(cs, range(1, 5))
            checked += 1
            failing += not axioms.check_d1(cs).passed
    assert checked == 2043
    assert 0 < failing < checked


@st.composite
def closures_with_any_pairs(draw):
    """Join closure of two to six subsets of a ground set of width 3 to 5,
    with up to seven of its nonzero pairs out of contact.  The argument asks
    nothing of the relation, so neither does the draw: the relation need
    not be a weak contact.  Half the draws take disjoint pairs only, which
    the identity represents, so d1 passes and the walk sees every level."""
    rng = draw(st.randoms(use_true_random=False))
    width = rng.randint(3, 5)
    gens = [rng.getrandbits(width) for _ in range(rng.randint(2, 6))]
    lattice = join_closure(width, gens)
    carrier, disjoint_only = lattice.carrier, rng.random() < 0.5
    candidates = [
        (i, j) for i, j in combinations(range(1, lattice.size), 2)
        if not (disjoint_only and carrier[i] & carrier[j])
    ]
    pairs = rng.sample(candidates, min(len(candidates), rng.randint(1, 7)))
    return ContactStructure(lattice, contact_all_except(lattice.size, pairs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(closures_with_any_pairs())
def test_d1plus_fails_at_level_one_or_never_on_random_closures(cs):
    # Every level up to the pair count, where the walk has seen every pair set.
    assert_d1_decides_d1plus(cs, range(1, len(cs.contact.noncontact_pairs()) + 1))
