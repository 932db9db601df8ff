"""Scans kept as oracles for the library's axiom checkers.

Each ungated scan enumerates subsets of the non-contact pairs exactly as the
library does, but without the polynomial column test in front, so it is
exponential in the number of pairs.  The library must return the same
verdicts, params and witnesses; only the ``examined`` counts differ.
``gated_first_d2_violation`` puts the column test back in front of the
per-partner d2 scan, and ``check_weak_contact`` walks every pair of the
relation; the library's image-based d2 search and weak-contact routine
(``ContactStructure.weak_contact_violation``) must match them ``examined``
included.  ``first_d2_violation_by_images`` is the library's d2 walk as it
was before it tested only the column test's candidate pairs: each pair
set's images and meets over every element, then the first uncovered pair;
the library must match it, ``examined`` and ``d2_holds_to`` included.  ``check_d2_naive`` transcribes
level-n d2 literally, without the library's reductions, so only its verdicts
are compared.  ``brute_force_representation`` searches every
join-preserving map into a small powerset, sharing no machinery with the
library's column decider.  ``canonical_dumps_reference`` is the ``json``
one-liner the library's canonical writer must match byte for byte, and
``contact_rows`` is the two-pass contact validation (per-pair checks, then
``sorted(set(pairs))``) the one-pass structure loader must match, error
text included.  ``leq_masks_scan``, ``below_masks_scan``,
``union_irreducibles_scan``, ``overlap_contact_scan`` and
``semilattice_error`` compare every pair of carrier elements, as the order
masks, the irreducibles, the overlap relation and the union-closure check
did before they were folded from the irreducibles' up-sets;
``images_over_scan`` and ``meets_scan`` test each element against each
column for the lattice-level image kernel;
``ambient_extension_facts_scan`` asks ``ambient_related``
(``ambient_related_scan``, which walks the carrier) about every related
pair.  The library must match them, error text included.
``d1plus_column_test``, ``d2_column_test`` and ``decide_by_pairs`` rebuild
the admissible columns from the non-contact pairs and decide the column
tests and representability pair by pair, as the library did before all
three read one set of canonical images.
``gated_check_d2_minus`` is d2minus as the library decided it before it
read the ground points: ``column_domains`` (the meets of the complemented
admissible-column images) gate each first-slot pair
(``d2minus_slots_by_columns``), and ``common_bound``
meets the down-sets of x + s over each pair set's selector sums.  The
library must match it, ``examined`` included.  ``d2minus_slots_per_slot``
builds y1's bound D(y1) again for every first-slot pair, and
``check_additive_by_joins`` asks ``lattice.join`` for every triple, as the
library did before it kept one bound per element and read the joins off
the carrier; the library must match them, slot answers and ``examined``
included.

Some builders serve only the tests: ``contact_from_related_pairs`` (a
relation from its related pairs), ``identity_map`` and
``inclusion_into_ambient`` (contact maps for the extension tests),
``find_minimal_separators`` (the smallest corpus classes separating d2 at a
level), ``generator_indices`` (a separator's
designated elements, read off the construction), ``write_structure_file``
(a structure file in canonical bytes), ``parity_products_sum_form`` (the
parity products as sums of full literal products, the second normal form
the library's selector-sum products must equal) and
``count_semilattice_tables`` (semilattice classes counted by filtering
every binary operation table, independent of the library's lattice-growth
generator).

``lattices_by_poset_growth`` finds the lattices as the library did before it
grew them a coatom at a time: it grows every bottomed poset one maximal
element at a time and keeps those with all binary joins; the canonical forms
per size must be the library's.  ``iso_class_key_reference`` is the
least (order, contact) pair over ``apply_perm_reference``, the per-bit
relabelling, taken as one minimum over all of the key's permutations; the
library's key, read off one least order and the contact's orbit, and its
automorphisms must match it.  ``automorphisms_by_search`` tries every
permutation fixing the bottom, and ``burnside_class_counts`` counts contact
classes from Aut(L) alone.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb

from contactlab import enumeration
from contactlab.axioms import (
    Verdict,
    Witness,
    _common_points,
    _d2_violated,
    _selector_sums,
    require_weak_contact,
)
from contactlab.constructions import ContactMap, SeparatorStructure, powerset_lattice
from contactlab.core import (
    Bits,
    CapExceededError,
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    FreeBooleanAlgebra,
    full_mask,
    is_subset,
    iter_bits,
    overlap_contact,
)
from contactlab.enumeration import (
    CorpusRecord,
    _canonical_le,
    _class_respecting_perms,
    _inverse,
    _least_relabelling,
    _transpose,
)
from contactlab.representation import Refusal, Representation
from contactlab.serialize import SchemaError, canonical_dumps, structure_to_json

TABLE_ORACLE_CAP = 5


def contact_from_related_pairs(
    size: int, pairs: list[tuple[int, int]] | tuple[tuple[int, int], ...]
) -> ContactRelation:
    """Relation with the given nonzero pairs related, plus the nonzero diagonal."""
    rows = [0] * size
    for i in range(1, size):
        rows[i] = 1 << i
    for i, j in pairs:
        if i == 0 or j == 0:
            raise ValueError(f"contact pair ({i}, {j}) involves the zero element")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return ContactRelation(size, tuple(rows))


def identity_map(cs: ContactStructure) -> ContactMap:
    return ContactMap(cs, cs.lattice, tuple(range(cs.size)))


def inclusion_into_ambient(sep: SeparatorStructure) -> ContactMap:
    """Inclusion of the separator carrier into the ambient powerset algebra.

    The powerset carrier sorted by bit pattern is the identity enumeration,
    so the image index of an element is its own bit mask.
    """
    target = powerset_lattice(sep.algebra.width)
    return ContactMap(sep.structure, target, sep.structure.lattice.carrier)


def _automorphisms(lattice: FiniteJoinSemilattice) -> list[list[int]]:
    """The non-identity automorphisms of the lattice: the permutations within
    groups of equal (up-count, down-count) that fix ``leq_masks``."""
    return _least_relabelling(lattice.leq_masks)[2]


def find_minimal_separators(max_size: int, n: int) -> list[CorpusRecord]:
    """Smallest-carrier classes passing d1 whose least failing d2 level is n,
    read off the corpus profiled to depth n.  Empty means no separator exists
    up to max_size."""
    if n < 2:
        raise ValueError(f"separation level must be at least 2, got {n}")
    hits = [
        r
        for r in enumeration.classify_corpus(max_size, depth=n)
        if r.profile.d1 and r.profile.d2[n - 2] and not r.profile.d2[n - 1]
    ]
    if not hits:
        return []
    smallest = min(r.structure.size for r in hits)
    return [r for r in hits if r.structure.size == smallest]


def generator_indices(sep: SeparatorStructure) -> tuple[int, ...]:
    """Carrier indices of a separator's 2n + 2 designated elements (the
    literals and the two parity products), ascending."""
    flat = [i for pair in sep.literal_pairs for i in pair]
    return tuple(sorted(flat + [sep.even_product, sep.odd_product]))


def write_structure_file(
    path: str, cs: ContactStructure, roles: dict[str, int] | None = None
) -> None:
    """A structure file in the canonical bytes the loader reads."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(structure_to_json(cs, roles)))


def parity_products_sum_form(n: int) -> tuple[Bits, Bits]:
    """The parity products computed as sums of full literal products.

    For odd n the even product collects even-parity full products; for even n
    the parities swap.  Returned in the same (even, odd) order as
    ``parity_products``.
    """
    ba = FreeBooleanAlgebra.build(n)
    even_sum = odd_sum = 0
    for f in range(1 << n):
        p = ba.full
        for i in range(1, n + 1):
            p &= ba.literal(i, (f >> (n - i)) & 1)
        if f.bit_count() & 1:
            odd_sum |= p
        else:
            even_sum |= p
    if n % 2:
        return even_sum, odd_sum
    return odd_sum, even_sum


def count_semilattice_tables(k: int) -> int:
    """Classes of size-k join-semilattices with 0, found by filtering all
    binary operation tables; independent of the lattice-growth generator."""
    if k < 1:
        raise ValueError("size must be positive")
    if k > TABLE_ORACLE_CAP:
        raise CapExceededError(f"table oracle capped at size {TABLE_ORACLE_CAP}")
    if k == 1:
        return 1
    free = [(i, j) for i in range(1, k) for j in range(i + 1, k)]
    canon: set[tuple[int, ...]] = set()
    for values in product(range(k), repeat=len(free)):
        table = [[0] * k for _ in range(k)]
        for x in range(k):
            table[x][x] = x
            table[0][x] = table[x][0] = x
        for (i, j), v in zip(free, values):
            table[i][j] = table[j][i] = v
        ok = True
        for x in range(k):
            for y in range(k):
                for z in range(k):
                    if table[table[x][y]][z] != table[x][table[y][z]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        best = min(
            tuple(
                p[table[q[i]][q[j]]]
                for i in range(k)
                for j in range(k)
            )
            for p, q in _labelled_perms(k)
        )
        canon.add(best)
    return len(canon)


def _extend_posets(classes: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All bottomed posets one element larger, canonical, sorted."""
    out: set[tuple[int, ...]] = set()
    for le in classes:
        k = len(le)
        down = _transpose(le)
        for dset in range(1, 1 << k, 2):  # down-sets containing the bottom
            if any(down[x] & ~dset for x in iter_bits(dset)):
                continue
            grown = tuple(
                le[x] | ((1 << k) if (dset >> x) & 1 else 0) for x in range(k)
            ) + (1 << k,)
            out.add(_canonical_le(grown))
    return sorted(out)


def _is_lattice(le: tuple[int, ...]) -> bool:
    k = len(le)
    for x in range(k):
        for y in range(x + 1, k):
            ubs = le[x] & le[y]
            if not ubs:
                return False
            if not any(ubs & ~le[z] == 0 for z in iter_bits(ubs)):
                return False
    return True


def lattices_by_poset_growth(max_size: int) -> list[list[tuple[int, ...]]]:
    """Per size 1..max_size, the canonical up-set masks of every lattice,
    sorted: bottomed posets grown one maximal element at a time (every
    poset arises by deleting a maximal element), filtered for all joins."""
    posets: list[tuple[int, ...]] = [(1,)]
    out = []
    for size in range(1, max_size + 1):
        if size > 1:
            posets = _extend_posets(posets)
        out.append([le for le in posets if _is_lattice(le)])
    return out


def apply_perm_reference(masks: tuple[int, ...], p: list[int]) -> tuple[int, ...]:
    """Relabel each mask bit by bit: bit j of masks[i] becomes bit p[j] of
    out[p[i]]."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        m = 0
        for j in iter_bits(mask):
            m |= 1 << p[j]
        out[p[i]] = m
    return tuple(out)


def iso_class_key_reference(cs: ContactStructure) -> str:
    """The least relabelled (order, contact) pair, as one minimum over the
    permutations fixing 0 within groups of equal (up-count, down-count).
    The rows are relabelled only where the order is no larger than the
    least pair so far, since only there can the pair be smaller."""
    up, down, rows = cs.lattice.leq_masks, cs.lattice.below_masks, cs.contact.rows
    inv = [(up[i].bit_count(), down[i].bit_count()) for i in range(cs.size)]
    best = None
    for p in _class_respecting_perms(inv):
        order = apply_perm_reference(up, p)
        if best is None or order <= best[0]:
            enc = (order, apply_perm_reference(rows, p))
            if best is None or enc < best:
                best = enc
    return hashlib.sha256(repr(best).encode()).hexdigest()


def contacts_by_filter(lattice: FiniteJoinSemilattice) -> list[ContactRelation]:
    """Every weak contact on the lattice: the overlap relation plus each
    up-closed set of non-overlapping pairs, found by filtering all subsets
    of those pairs in ascending mask order."""
    ov = overlap_contact(lattice)
    size = lattice.size
    optional = [
        (i, j)
        for i in range(1, size)
        for j in range(i + 1, size)
        if not ov.related(i, j)
    ]
    dominators = []
    for x, y in optional:
        mask = 0
        for q, (x1, y1) in enumerate(optional):
            if (lattice.leq(x, x1) and lattice.leq(y, y1)) or (
                lattice.leq(x, y1) and lattice.leq(y, x1)
            ):
                mask |= 1 << q
        dominators.append(mask)
    out = []
    for chosen in range(1 << len(optional)):
        if any(dominators[p] & ~chosen for p in iter_bits(chosen)):
            continue
        rows = list(ov.rows)
        for p in iter_bits(chosen):
            i, j = optional[p]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        out.append(ContactRelation(size, tuple(rows)))
    return out


def automorphisms_by_search(lattice: FiniteJoinSemilattice) -> list[list[int]]:
    """The non-identity permutations fixing the bottom that keep the order,
    over all of them, in lexicographic order."""
    k = lattice.size
    return [
        p
        for p, _ in _labelled_perms(k)
        if p != list(range(k))
        and all(
            lattice.leq(i, j) == lattice.leq(p[i], p[j])
            for i in range(k)
            for j in range(k)
        )
    ]


def _count_up_sets(ups: list[int], downs: list[int]) -> int:
    """Up-sets of a finite order given each element's up- and down-set masks
    (both reflexive): those holding the largest available element x drop
    its up-set, the others its down-set."""
    memo = {0: 1}

    def count(available: int) -> int:
        if available not in memo:
            x = available.bit_length() - 1
            memo[available] = count(available & ~ups[x]) + count(available & ~downs[x])
        return memo[available]

    return count((1 << len(ups)) - 1)


def burnside_class_counts(lattices: Iterable[FiniteJoinSemilattice]) -> list[int]:
    """Contact classes on each of the lattices, by the Cauchy-Frobenius
    lemma: (1/|Aut L|) times the sum over g in Aut L of the contacts g
    fixes.  A fixed contact is an up-set of non-overlapping pairs that is a
    union of g-orbits of pairs, so it is an up-set of the quotient order on
    those orbits (one orbit lies below another if some member does, which
    is transitive since g keeps the order).  No contact is listed and none
    is keyed."""
    counts = []
    for lattice in lattices:
        ov = overlap_contact(lattice)
        size = lattice.size
        optional = [
            (i, j)
            for i in range(1, size)
            for j in range(i + 1, size)
            if not ov.related(i, j)
        ]
        number = {pair: q for q, pair in enumerate(optional)}
        below = [
            [
                (lattice.leq(x, x1) and lattice.leq(y, y1))
                or (lattice.leq(x, y1) and lattice.leq(y, x1))
                for x1, y1 in optional
            ]
            for x, y in optional
        ]
        group = [list(range(size))] + _automorphisms(lattice)
        fixed = 0
        for g in group:
            orbit_of = [-1] * len(optional)
            orbits = 0
            for start in range(len(optional)):
                if orbit_of[start] >= 0:
                    continue
                q = start
                while orbit_of[q] < 0:
                    orbit_of[q] = orbits
                    x, y = optional[q]
                    q = number[min(g[x], g[y]), max(g[x], g[y])]
                orbits += 1
            ups, downs = [0] * orbits, [0] * orbits
            for a, row in enumerate(below):
                for b, dominated in enumerate(row):
                    if dominated:
                        ups[orbit_of[a]] |= 1 << orbit_of[b]
                        downs[orbit_of[b]] |= 1 << orbit_of[a]
            fixed += _count_up_sets(ups, downs)
        if fixed % len(group):
            raise AssertionError("Burnside sum must divide by the group order")
        counts.append(fixed // len(group))
    return counts


def _labelled_perms(k: int):
    for perm in permutations(range(1, k)):
        p = [0, *perm]
        yield p, _inverse(p)


def first_d1plus_violation(cs: ContactStructure, max_size: int):
    """Least pair-count m <= max_size at which d1+ has a violation."""
    lattice = cs.lattice
    below = lattice.below_masks
    pairs = cs.contact.noncontact_pairs()
    examined = 0
    everything = full_mask(lattice.size)
    for m in range(1, min(max_size, len(pairs)) + 1):
        for combo in combinations(pairs, m):
            sums = _selector_sums(lattice, combo)
            for a in range(lattice.size):
                examined += 1
                bounded = everything
                for s in sums:
                    bounded &= below[lattice.join(a, s)]
                    if not bounded:
                        break
                bad = bounded & ~below[a]
                if bad:
                    b = next(iter_bits(bad))
                    witness = Witness("d1plus", (("a", a), ("b", b)), combo)
                    return m, witness, examined
    return None, None, examined


def first_d2_violation(cs: ContactStructure, max_size: int):
    """Least pair-count m <= max_size at which d2 has a violation."""
    lattice, rel = cs.lattice, cs.contact
    leq_masks = lattice.leq_masks
    size = lattice.size
    pairs = rel.noncontact_pairs()
    examined = 0
    for m in range(1, min(max_size, len(pairs)) + 1):
        full_profile = full_mask(1 << m)
        for combo in combinations(pairs, m):
            sums = _selector_sums(lattice, combo)
            profiles = []
            for e in range(size):
                mask_e = leq_masks[e]
                prof = 0
                for f, s in enumerate(sums):
                    prof |= ((mask_e >> s) & 1) << f
                profiles.append(prof)
            for a in range(1, size):
                examined += 1
                row = rel.rows[a] >> a
                prof_a = profiles[a]
                for off in iter_bits(row):
                    if prof_a | profiles[a + off] == full_profile:
                        witness = Witness("d2", (("a", a), ("b", a + off)), combo)
                        return m, witness, examined
    return None, None, examined


def gated_first_d2_violation(cs: ContactStructure, max_size: int):
    """The per-partner scan behind the column test: one unit per element
    for the test, then the scan's own count."""
    if not _d2_violated(cs):
        return None, None, cs.size
    m, witness, examined = first_d2_violation(cs, max_size)
    return m, witness, cs.size + examined


def first_d2_violation_by_images(cs: ContactStructure, max_size: int):
    """The library's d2 walk with its per-set kernel over every element:
    the images of all elements over the set's selector sums, their meets,
    and the first uncovered pair among all the contact pairs.  It resumes
    and records ``cs.d2_holds_to`` as the library does."""
    lattice = cs.lattice
    size = lattice.size
    if not _d2_violated(cs):
        return None, None, size
    pairs = cs.contact.noncontact_pairs()
    floor = 1 if cs.is_weak_contact else 0
    skipped = min(max(cs.d2_holds_to, floor), max_size)
    examined = size + (size - 1) * sum(
        comb(len(pairs), j) for j in range(1, skipped + 1)
    )
    for m in range(skipped + 1, min(max_size, len(pairs)) + 1):
        for combo in combinations(pairs, m):
            if m == len(pairs):
                disjoint = cs.disjoint_images
            else:
                sums = _selector_sums(lattice, combo)
                disjoint = lattice.meets(sums, lattice.images_over(sums))
            hit = cs.first_uncovered_pair(disjoint)
            if hit is not None:
                a, b = hit
                return m, Witness("d2", (("a", a), ("b", b)), combo), examined + a
            examined += size - 1
        cs.d2_holds_to = m
    return None, None, examined


def admissible_column_masks(cs: ContactStructure):
    """Admissible columns and, per element, the columns above it (bit j of
    ``above[x]`` iff x <= columns[j]), built from the non-contact pairs and
    the down-set of each column, without the library's images."""
    lattice = cs.lattice
    leq, below = lattice.leq_masks, lattice.below_masks
    admissible = full_mask(lattice.size) & ~(1 << lattice.top)
    for x, y in cs.contact.noncontact_pairs():
        admissible &= leq[x] | leq[y]
    columns = tuple(iter_bits(admissible))
    above = [0] * lattice.size
    for j, m in enumerate(columns):
        for x in iter_bits(below[m]):
            above[x] |= 1 << j
    return columns, tuple(above)


def d1plus_column_test(cs: ContactStructure) -> bool:
    """d1+ fails at some level iff D(a), the meet of the down-sets of the
    columns above a, is not inside the down-set of a for some a."""
    columns, above = admissible_column_masks(cs)
    below = cs.lattice.below_masks
    for a in range(cs.size):
        domain = full_mask(cs.size)
        for j in iter_bits(above[a]):
            domain &= below[columns[j]]
        if domain & ~below[a]:
            return True
    return False


def d2_column_test(cs: ContactStructure) -> bool:
    """d2 fails at some level iff some a >= 1 is related to some b with
    every column above a or above b."""
    columns, above = admissible_column_masks(cs)
    everything = full_mask(len(columns))
    rows = cs.contact.rows
    return any(
        above[a] | above[b] == everything
        for a in range(1, cs.size)
        for b in iter_bits(rows[a])
    )


def decide_by_pairs(cs: ContactStructure, mode: str) -> Representation | Refusal:
    """The canonical column decider walked pair by pair: images from the
    columns above each element, the first empty or repeated image, then
    (overlap) the first related pair with disjoint images."""
    require_weak_contact(cs)
    columns, above = admissible_column_masks(cs)
    everything = full_mask(len(columns))
    images = tuple(everything ^ mask for mask in above)
    seen: dict[int, int] = {}
    for x, img in enumerate(images):
        if x and not img:
            return Refusal(mode, "zero-image", (x,))
        if img in seen:
            return Refusal(mode, "indistinguishable-pair", (seen[img], x))
        seen[img] = x
    if mode == "overlap":
        for i, j in cs.contact.related_pairs():
            if not images[i] & images[j]:
                return Refusal(mode, "uncovered-contact-pair", (i, j))
    return Representation(mode, columns, images)


def check_weak_contact(cs: ContactStructure) -> Verdict:
    """Every weak-contact clause pair by pair: the nonzero diagonal and zero
    column, symmetry over all related pairs, up-closure of every row."""
    start = time.perf_counter()
    lattice, rel = cs.lattice, cs.contact
    size = lattice.size
    examined = 0

    def done(witness: Witness | None) -> Verdict:
        return Verdict("weak-contact", {}, witness is None, witness, examined,
                       time.perf_counter() - start)

    if rel.rows[0]:
        return done(Witness("zero", (("a", 0), ("b", next(iter_bits(rel.rows[0]))))))
    for i in range(1, size):
        examined += 1
        if rel.rows[i] & 1:
            return done(Witness("zero", (("a", i), ("b", 0))))
        if not (rel.rows[i] >> i) & 1:
            return done(Witness("reflexivity", (("a", i),)))
    for i in range(size):
        for j in iter_bits(rel.rows[i]):
            examined += 1
            if not (rel.rows[j] >> i) & 1:
                return done(Witness("symmetry", (("a", i), ("b", j))))
    up = lattice.leq_masks
    for i in range(1, size):
        row = rel.rows[i]
        for j in iter_bits(row):
            examined += 1
            missing = up[j] & ~row
            if missing:
                b1 = next(iter_bits(missing))
                return done(
                    Witness("extension", (("a", i), ("b", j), ("a1", i), ("b1", b1)))
                )
    return done(None)


def check_d2_minus(cs: ContactStructure) -> Verdict:
    """One-sided d2 over every distinguished pair and every subset of the
    remaining non-contact pairs."""
    start = time.perf_counter()
    lattice, rel = cs.lattice, cs.contact
    size = lattice.size
    below = lattice.below_masks
    everything = full_mask(size)
    nonzero_pairs = rel.noncontact_pairs()
    first_slot = [
        (i, j)
        for i in range(size)
        for j in range(i, size)
        if not (rel.rows[i] >> j) & 1
    ]
    examined = 0
    for x1, y1 in first_slot:
        pool = [p for p in nonzero_pairs if p != (x1, y1)]
        for r in range(len(pool) + 1):
            for rest in combinations(pool, r):
                examined += 1
                sums = _selector_sums(lattice, rest)
                side_b = everything
                for s in sums:
                    side_b &= below[lattice.join(x1, s)]
                    if not side_b:
                        break
                if not side_b:
                    continue
                side_a = everything
                for s in sums:
                    side_a &= below[lattice.join(y1, s)]
                    if not side_a:
                        break
                if not side_a:
                    continue
                for b in iter_bits(side_b):
                    hit = rel.rows[b] & side_a
                    if hit:
                        a = next(iter_bits(hit))
                        witness = Witness(
                            "d2minus", (("a", a), ("b", b)), ((x1, y1),) + rest
                        )
                        return Verdict(
                            "d2minus", {}, False, witness, examined,
                            time.perf_counter() - start,
                        )
    return Verdict("d2minus", {}, True, None, examined, time.perf_counter() - start)


def column_domains(cs: ContactStructure) -> tuple[int, ...]:
    """D(x) for every element x: the elements whose image lies inside the
    image of x, i.e. what x plus every selector sum over all pairs bounds."""
    columns, images = cs.canonical_images
    everything = full_mask(len(columns))
    return cs.lattice.meets(columns, [everything ^ img for img in images])


def common_bound(lattice: FiniteJoinSemilattice, x: int, sums: list[int]) -> int:
    """Elements below x + s for every selector sum s; 0 once the meet empties."""
    below = lattice.below_masks
    bounded = full_mask(lattice.size)
    for s in sums:
        bounded &= below[lattice.join(x, s)]
        if not bounded:
            break
    return bounded


def d2minus_slots_by_columns(cs: ContactStructure):
    """The first-slot pairs (x1, y1) in scan order, each with whether some
    b in D(x1) is in contact with some a in D(y1), D from the columns."""
    rows, domains = cs.contact.rows, column_domains(cs)
    for x1 in range(cs.size):
        reach = 0
        for b in iter_bits(domains[x1]):
            reach |= rows[b]
        for y1 in range(x1, cs.size):
            if not (rows[x1] >> y1) & 1:
                yield x1, y1, bool(reach & domains[y1])


def gated_check_d2_minus(cs: ContactStructure) -> Verdict:
    """d2minus as the library decided it before it read the ground points:
    each first-slot pair gated by the column domains, then each remaining
    pair set's selector sums meeting below x1 + s and y1 + s."""
    start = time.perf_counter()
    lattice, rel = cs.lattice, cs.contact
    nonzero_pairs = rel.noncontact_pairs()
    examined = 0
    for x1, y1, violated in d2minus_slots_by_columns(cs):
        examined += 1
        if not violated:
            continue
        pool = [p for p in nonzero_pairs if p != (x1, y1)]
        for r in range(len(pool) + 1):
            for rest in combinations(pool, r):
                examined += 1
                sums = _selector_sums(lattice, rest)
                side_b = common_bound(lattice, x1, sums)
                if not side_b:
                    continue
                side_a = common_bound(lattice, y1, sums)
                if not side_a:
                    continue
                for b in iter_bits(side_b):
                    hit = rel.rows[b] & side_a
                    if hit:
                        a = next(iter_bits(hit))
                        witness = Witness(
                            "d2minus", (("a", a), ("b", b)), ((x1, y1),) + rest
                        )
                        return Verdict(
                            "d2minus", {}, False, witness, examined,
                            time.perf_counter() - start,
                        )
    return Verdict("d2minus", {}, True, None, examined, time.perf_counter() - start)


def d2minus_slots_per_slot(cs: ContactStructure):
    """The first-slot pairs (x1, y1) of d2minus in scan order, each with
    whether some b in D(x1) is in contact with some a in D(y1), D(x) the
    elements inside carrier[x] | common(P): D(x1) built once per x1 with a
    partner, D(y1) once per slot whose D(x1) reaches some contact."""
    lattice, rows, size = cs.lattice, cs.contact.rows, cs.size
    carrier, everything = lattice.carrier, full_mask(size)
    common = _common_points(lattice, cs.contact.noncontact_pairs())
    for x1 in range(size):
        partners = (everything & ~rows[x1]) >> x1
        if not partners:
            continue
        reach = 0
        for b in iter_bits(lattice.subsets_of(carrier[x1] | common)):
            reach |= rows[b]
        for off in iter_bits(partners):
            y1 = x1 + off
            yield x1, y1, bool(reach and reach & lattice.subsets_of(carrier[y1] | common))


def check_additive_by_joins(cs: ContactStructure) -> Verdict:
    """a d (b+c) implies a d b or a d c: every nonzero a, then b <= c
    ascending among the nonzero elements not in contact with a, each join
    asked of ``lattice.join``."""
    require_weak_contact(cs)
    start = time.perf_counter()
    lattice, rel = cs.lattice, cs.contact
    size = lattice.size
    nonzero = full_mask(size) ^ 1
    examined = 0
    for a in range(1, size):
        row = rel.rows[a]
        strangers = nonzero & ~row
        for b in iter_bits(strangers):
            for off in iter_bits(strangers >> b):
                c = b + off
                examined += 1
                if (row >> lattice.join(b, c)) & 1:
                    witness = Witness("add", (("a", a), ("b", b), ("c", c)))
                    return Verdict("add", {}, False, witness, examined,
                                   time.perf_counter() - start)
    return Verdict("add", {}, True, None, examined, time.perf_counter() - start)


def check_d2_naive(cs: ContactStructure, n: int) -> Verdict:
    """Oracle transcription of level-n d2: ordered tuples of unrelated
    ordered pairs, repetitions and zero components included, with the
    premise evaluated literally per selector.  Slow; used to cross-check
    the bucketed checker."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    start = time.perf_counter()
    lattice, rel = cs.lattice, cs.contact
    size = lattice.size
    carrier, index = lattice.carrier, lattice.index
    below = lattice.below_masks
    unrelated = [
        (x, y)
        for x in range(size)
        for y in range(size)
        if not (rel.rows[x] >> y) & 1
    ]
    examined = 0

    def scan(depth: int, sums_bits: list[int]) -> Witness | None:
        nonlocal examined
        if depth == n:
            sums = [index[s] for s in sums_bits]
            for a in range(size):
                for b in range(a, size):
                    examined += 1
                    if not (rel.rows[a] >> b) & 1:
                        continue
                    if all(
                        (below[s] >> b) & 1 or (below[s] >> a) & 1 for s in sums
                    ):
                        return Witness("d2", (("a", a), ("b", b)))
            return None
        for x, y in unrelated:
            cx, cy = carrier[x], carrier[y]
            extended = [s | cx for s in sums_bits] + [s | cy for s in sums_bits]
            found = scan(depth + 1, extended)
            if found is not None:
                return found._replace(pairs=((x, y),) + found.pairs)
        return None

    witness = scan(0, [0])
    return Verdict(
        "d2-naive", {"n": n}, witness is None, witness, examined,
        time.perf_counter() - start,
    )


@dataclass(frozen=True)
class Exhausted:
    """Brute-force search hit its resource cap before deciding."""

    nodes: int


def brute_force_representation(
    cs: ContactStructure,
    mode: str = "weak",
    u_max: int | None = None,
    carrier_cap: int = 8,
    node_budget: int = 5_000_000,
) -> Representation | Refusal | Exhausted:
    """Exhaustive search over join-preserving zero-reflecting maps into
    powersets of at most u_max points.

    A map is a choice, per ground point, of the set of elements whose image
    contains it; join preservation forces that set to satisfy, literally,
    "contains x+y iff it contains x or y".  All such sets are enumerated by
    brute filtering, then every combination of at most u_max of them is
    tried.  Shares no machinery with the canonical column decider.
    """
    require_weak_contact(cs)
    size = cs.size
    if size > carrier_cap:
        raise ValueError(f"carrier size {size} exceeds oracle cap {carrier_cap}")
    if u_max is None:
        u_max = size
    lattice, rel = cs.lattice, cs.contact
    noncontact = rel.noncontact_pairs()
    related = rel.related_pairs()

    rows: list[int] = []
    for candidate in range(1 << size):
        if candidate & 1:
            continue  # the point would lie in the image of 0
        ok = True
        for x in range(size):
            for y in range(x, size):
                j = lattice.join(x, y)
                if ((candidate >> j) & 1) != bool((candidate >> x) & 1 or (candidate >> y) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok and all(
            not ((candidate >> a) & 1 and (candidate >> b) & 1) for a, b in noncontact
        ):
            rows.append(candidate)

    nonzero = full_mask(size) ^ 1
    nodes = 0
    for count in range(min(u_max, len(rows)) + 1):
        for chosen in combinations(rows, count):
            nodes += 1
            if nodes > node_budget:
                return Exhausted(nodes)
            covered = 0
            for r in chosen:
                covered |= r
            if covered & nonzero != nonzero:
                continue
            images = [0] * size
            for j, r in enumerate(chosen):
                for x in iter_bits(r):
                    images[x] |= 1 << j
            if len(set(images)) != size:
                continue
            if mode == "overlap" and any(
                not images[i] & images[j] for i, j in related
            ):
                continue
            rep = Representation(mode, tuple(range(count)), tuple(images))
            rep.validate(cs)
            return rep
    return Refusal(mode, "no-representation-within-bounds", ())


def canonical_dumps_reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def contact_rows(raw_contact, size: int) -> tuple[int, ...]:
    """Relation rows of a structure's ``contact`` list: every pair is checked
    first, then the whole list for order and uniqueness."""
    if not isinstance(raw_contact, list):
        raise SchemaError("contact: expected a list of index pairs")
    pairs: list[tuple[int, int]] = []
    for pos, item in enumerate(raw_contact):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(type(v) is int for v in item)
        ):
            raise SchemaError(f"contact[{pos}]: expected a pair of ints")
        i, j = item
        if not (0 < i < size and 0 < j < size):
            raise SchemaError(
                f"contact[{pos}]: pair [{i}, {j}] out of range or touching zero"
            )
        if i >= j:
            raise SchemaError(
                f"contact[{pos}]: pair [{i}, {j}] must be ascending and irreflexive"
            )
        pairs.append((i, j))
    if pairs != sorted(set(pairs)):
        raise SchemaError("contact: pairs must be sorted and unique")
    return contact_from_related_pairs(size, pairs).rows


def leq_masks_scan(lattice: FiniteJoinSemilattice) -> tuple[int, ...]:
    out = []
    for ci in lattice.carrier:
        mask = 0
        for j, cj in enumerate(lattice.carrier):
            if ci & ~cj == 0:
                mask |= 1 << j
        out.append(mask)
    return tuple(out)


def below_masks_scan(lattice: FiniteJoinSemilattice) -> tuple[int, ...]:
    out = [0] * lattice.size
    for i, mask in enumerate(leq_masks_scan(lattice)):
        bit = 1 << i
        for j in iter_bits(mask):
            out[j] |= bit
    return tuple(out)


def union_irreducibles(lattice: FiniteJoinSemilattice) -> tuple[int, ...]:
    """Indices of the union-irreducibles as ``FiniteJoinSemilattice.basis``
    lists them: on a union-closed carrier the join-irreducibles, on a
    separator its 2n + 2 designated atoms."""
    return tuple(g for g, _, _ in lattice.basis)


def union_irreducibles_scan(lattice: FiniteJoinSemilattice) -> tuple[int, ...]:
    """The elements that are not the union of the elements strictly below
    them, each tested against every other element."""
    carrier = lattice.carrier
    out = []
    for g, bits in enumerate(carrier):
        below = 0
        for other in carrier:
            if other != bits and is_subset(other, bits):
                below |= other
        if below != bits:
            out.append(g)
    return tuple(out)


def overlap_contact_scan(lattice: FiniteJoinSemilattice) -> tuple[int, ...]:
    """Rows of the relation: a related to b iff some nonzero element lies
    below both.  Every nonzero element's up-set, found by testing it against
    every element, is marked related to itself."""
    carrier = lattice.carrier
    rows = [0] * lattice.size
    for z in carrier[1:]:
        up = [a for a, x in enumerate(carrier) if is_subset(z, x)]
        mask = sum(1 << a for a in up)
        for a in up:
            rows[a] |= mask
    return tuple(rows)


def images_over_scan(
    lattice: FiniteJoinSemilattice, columns: list[int]
) -> tuple[int, ...]:
    """Per element, bit j iff it is not a subset of columns[j]."""
    carrier = lattice.carrier
    return tuple(
        sum(1 << j for j, m in enumerate(columns) if x & ~carrier[m])
        for x in carrier
    )


def meets_scan(
    lattice: FiniteJoinSemilattice, columns: list[int], masks: list[int]
) -> tuple[int, ...]:
    """Per mask, the elements that are subsets of every column in it."""
    carrier = lattice.carrier
    return tuple(
        sum(
            1 << i
            for i, x in enumerate(carrier)
            if all(not x & ~carrier[columns[j]] for j in iter_bits(mask))
        )
        for mask in masks
    )


def semilattice_error(width: int, carrier: tuple[Bits, ...]) -> str | None:
    """The ``ValueError`` text ``FiniteJoinSemilattice(width, carrier)``
    raises, or None; union-closure is checked on every pair."""
    if not carrier or carrier[0] != 0:
        return "carrier must contain the empty set first"
    if list(carrier) != sorted(set(carrier)):
        return "carrier must be strictly sorted by bit pattern"
    if carrier[-1] < 0 or carrier[-1] >> width:
        return f"bit vector {carrier[-1]:#x} exceeds width {width}"
    members = set(carrier)
    for a in carrier:
        for b in carrier:
            if a | b not in members:
                return f"carrier not union-closed: {a:#x} | {b:#x} missing"
    return None


def ambient_related_scan(sep: SeparatorStructure, b1: Bits, b2: Bits) -> bool:
    if b1 == 0 or b2 == 0:
        return False
    if b1 & b2:
        return True
    lattice = sep.structure.lattice
    rel = sep.structure.contact
    m1 = m2 = 0
    for i, bits in enumerate(lattice.carrier):
        if bits and is_subset(bits, b1):
            m1 |= 1 << i
        if bits and is_subset(bits, b2):
            m2 |= 1 << i
    reach = 0
    for i in iter_bits(m1):
        reach |= rel.rows[i]
    return bool(reach & m2)


def ambient_extension_facts_scan(sep: SeparatorStructure) -> dict[str, bool]:
    lattice = sep.structure.lattice
    rel = sep.structure.contact
    carrier = lattice.carrier
    preserves = True
    for i in range(1, sep.structure.size):
        for j in iter_bits(rel.rows[i]):
            if not ambient_related_scan(sep, carrier[i], carrier[j]):
                preserves = False
    reflects = all(
        not ambient_related_scan(sep, carrier[i], carrier[j])
        for i, j in rel.noncontact_pairs()
    )
    even_bits = carrier[sep.even_product]
    odd_bits = carrier[sep.odd_product]
    first_atom = even_bits & -even_bits
    rest = even_bits ^ first_atom
    nonadditive = (
        ambient_related_scan(sep, odd_bits, even_bits)
        and not ambient_related_scan(sep, odd_bits, first_atom)
        and not ambient_related_scan(sep, odd_bits, rest)
    )
    return {"preserves": preserves, "reflects": reflects, "nonadditive": nonadditive}
