"""Scans kept as oracles for the library's axiom checkers.

Each ungated scan enumerates subsets of the non-contact pairs exactly as the
library does, but without the polynomial column test in front, so it is
exponential in the number of pairs.  The library must return the same
verdicts, params and witnesses; only the ``examined`` counts differ.
``gated_first_d2_violation`` puts the column test back in front of the
per-partner d2 scan, and ``check_weak_contact`` walks every pair of the
relation; the library's profile-group d2 search and one-sided weak-contact
gate must match them ``examined`` included.  ``check_d2_naive`` transcribes
level-n d2 literally, without the library's reductions, so only its verdicts
are compared.  ``brute_force_representation`` searches every
join-preserving map into a small powerset, sharing no machinery with the
library's column decider.  ``canonical_dumps_reference`` is the ``json``
one-liner the library's canonical writer must match byte for byte, and
``contact_rows`` is the two-pass contact validation (per-pair checks, then
``sorted(set(pairs))``) the one-pass structure loader must match, error
text included.  ``leq_masks_scan``, ``below_masks_scan`` and
``semilattice_error`` compare every pair of carrier elements, as the order
masks and the union-closure check did before they were folded from
per-point columns; ``ambient_extension_facts_scan`` asks ``ambient_related``
(``ambient_related_scan``, which walks the carrier) about every related
pair.  The library must match them, error text included.
``d1plus_column_test``, ``d2_column_test`` and ``decide_by_pairs`` rebuild
the admissible columns from the non-contact pairs and decide the column
tests and representability pair by pair, as the library did before all
three read one set of canonical images.

Three builders serve only the tests: ``contact_from_related_pairs`` (a
relation from its related pairs), ``parity_products_sum_form`` (the parity
products as sums of full literal products, the second normal form the
library's selector-sum products must equal) and ``count_semilattice_tables``
(semilattice classes counted by filtering every binary operation table,
independent of the library's poset-extension generator).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from itertools import combinations, permutations, product

from contactlab.axioms import (
    Verdict,
    Witness,
    _d2_violated,
    _selector_sums,
    require_weak_contact,
)
from contactlab.constructions import SeparatorStructure
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
)
from contactlab.enumeration import _inverse
from contactlab.representation import Refusal, Representation
from contactlab.serialize import SchemaError

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
    binary operation tables; independent of the poset-extension generator."""
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
                return replace(found, pairs=((x, y),) + found.pairs)
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
            or not all(isinstance(v, int) for v in item)
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
