"""Exhaustive generation of small contact semilattices up to isomorphism.

Finite join-semilattices with 0 are the finite lattices, and they are grown
one coatom at a time (Heitzig & Reinhold, "Counting finite lattices", 2002).
A lattice minus its top is a meet-semilattice with 0.  Deleting a maximal
element m of a meet-semilattice leaves one, since x ^ y = m would force
m <= x, so m = x; putting m back under the top over D = (down-set of m) - {m}
is one growth step.  So every lattice of size k + 1 >= 3 arises from one of
size k.  The grown lattices are deduplicated per size by a canonical form and
realized as union-closed set families through the canonical filter embedding
``a -> {m : a not below m}`` over the non-maximum carrier elements.

One canonical form covers lattices and contact structures alike: the least
relabelling of the up-set masks, then of the contact rows, over the
permutations P that fix the bottom and permute only within groups of equal
(up-count, down-count).  Contacts on a fixed carrier are exactly the overlap
relation plus an up-closed set of non-overlapping pairs.  The pairs are
numbered in a linear extension of the order, so every pair that dominates
another has a higher number, and the up-sets are walked deciding the highest
pair first and excluding before including: every leaf is an up-set, and the
leaves come in ascending mask order, the order a filter over all pair
subsets would keep.

The lattices are pairwise non-isomorphic, so two contacts are isomorphic
only if they sit on the same lattice L and an automorphism of L maps one
onto the other.  One pass per lattice over P gives Aut(L), the least
relabelled order O* and one permutation p* giving it.  The permutations of
P giving O* are exactly p* . a for a in Aut(L), so the least (order,
contact) pair over P is O* with the least member of the contact's orbit
relabelled by them.  The orbits are kept in that least labelling: each
enumerated contact is relabelled once, by p*, and looked up among the
orbits seen; the first contact of an unseen orbit stands for its class,
and the rest of its orbit costs one relabelling per member, by a table for
p* . a.  The class key is the digest of O* and the least member.

A class is profiled where it is found: ``profile_of`` to one depth plus both
representation deciders, lattice by lattice, in the calling process or in a
worker.  Every reader of the corpus (the ``enumerate`` files and the
implication report) reads those flags.
"""

from __future__ import annotations

import hashlib
import os
from functools import cache, partial
from itertools import permutations, product
from math import comb
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .axioms import AxiomProfile, profile_of
from .core import (
    CapExceededError,
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    iter_bits,
    overlap_contact,
)
from .representation import (
    Representation,
    decide_overlap_representable,
    decide_weak_representable,
)
from . import serialize

SIZE_CAP = 9
# Levels above a structure's count of nonzero unrelated pairs repeat the
# level below, and within SIZE_CAP that count is at most C(SIZE_CAP - 1, 2).
DEPTH_CAP = comb(SIZE_CAP - 1, 2)

# A lattice on k points is a tuple ``le`` of k up-set masks: bit j of le[i]
# means i <= j.  Index 0 is always the bottom.


def _transpose(le: tuple[int, ...]) -> list[int]:
    down = [0] * len(le)
    for i, mask in enumerate(le):
        for j in iter_bits(mask):
            down[j] |= 1 << i
    return down


def _apply_perm(masks: tuple[int, ...], p: list[int]) -> tuple[int, ...]:
    bits = [1 << q for q in p]
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        m = 0
        while mask:
            low = mask & -mask
            m |= bits[low.bit_length() - 1]
            mask ^= low
        out[p[i]] = m
    return tuple(out)


def _class_respecting_perms(invariants: list[Any]) -> Iterator[list[int]]:
    """Permutations fixing index 0 and permuting only within groups of equal
    invariant; groups receive consecutive new indices in invariant order."""
    k = len(invariants)
    groups: dict[Any, list[int]] = {}
    for i in range(1, k):
        groups.setdefault(invariants[i], []).append(i)
    ordered = [groups[key] for key in sorted(groups)]
    starts = []
    pos = 1
    for g in ordered:
        starts.append(pos)
        pos += len(g)
    for arrangement in product(*(permutations(g) for g in ordered)):
        p = [0] * k
        for start, arranged in zip(starts, arrangement):
            for offset, old in enumerate(arranged):
                p[old] = start + offset
        yield p


def _inverse(p: list[int]) -> list[int]:
    inverse = [0] * len(p)
    for old, new in enumerate(p):
        inverse[new] = old
    return inverse


def _least_relabelling(
    up: tuple[int, ...],
) -> tuple[tuple[int, ...], list[int], list[list[int]]]:
    """One pass over the permutations of the order ``up`` that fix 0 and
    permute only within groups of equal (up-count, down-count).

    Returns the least relabelled order, the first permutation giving it, and
    the non-identity automorphisms, each a permutation followed by the
    inverse of the first permutation of the pass (it maps ``up`` to what
    the first one does)."""
    down = _transpose(up)
    perms = _class_respecting_perms(
        [(up[i].bit_count(), down[i].bit_count()) for i in range(len(up))]
    )
    first = next(perms)
    back = _inverse(first)
    fixed = least = _apply_perm(up, first)
    best = first
    automorphisms = []
    for p in perms:
        order = _apply_perm(up, p)
        if order == fixed:
            automorphisms.append([back[new] for new in p])
        elif order < least:
            least, best = order, p
    return least, best, automorphisms


def _canonical_le(le: tuple[int, ...]) -> tuple[int, ...]:
    return _least_relabelling(le)[0]


def _extend_lattices(lattices: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All lattices one element larger, canonical, sorted: each lattice of
    size k >= 2 with top t gains a coatom k over every set D of elements
    other than t that meets each principal down-set of L minus t in a
    principal down-set (such a D is a down-set containing 0, and the
    greatest element of D below x becomes the meet of k and x)."""
    if lattices == [(1,)]:
        return [(0b11, 0b10)]
    out: set[tuple[int, ...]] = set()
    for le in lattices:
        k = len(le)
        top = next(i for i in range(k) if le[i] == 1 << i)
        down = _transpose(le)
        principal = set(down)
        for dset in range(1, 1 << k, 2):
            if (dset >> top) & 1 or any(
                dset & down[x] not in principal for x in range(k) if x != top
            ):
                continue
            grown = tuple(
                le[x] | ((1 << k) if (dset >> x) & 1 else 0) for x in range(k)
            ) + (1 << k | 1 << top,)
            out.add(_canonical_le(grown))
    return sorted(out)


def _realize(le: tuple[int, ...]) -> FiniteJoinSemilattice:
    """Union-closed family isomorphic to the lattice, via filter columns.

    A join lies outside column m iff one of its parts does, so the image of
    a join is the union of the images: the family is union-closed by
    construction and skips the closure re-check."""
    k = len(le)
    top = next(i for i in range(k) if le[i] == 1 << i)
    columns = [m for m in range(k) if m != top]
    images = []
    for a in range(k):
        img = 0
        for j, m in enumerate(columns):
            if not (le[a] >> m) & 1:
                img |= 1 << j
        images.append(img)
    if len(set(images)) != k:
        raise AssertionError("filter embedding must be injective on a lattice")
    carrier = tuple(sorted(images))
    return FiniteJoinSemilattice.from_closed_carrier(len(columns), carrier)


def _check_size_cap(max_size: int) -> None:
    if max_size > SIZE_CAP:
        raise CapExceededError(
            f"max_size {max_size} exceeds enumeration cap {SIZE_CAP}"
        )


def check_corpus_caps(max_size: int, depth: int) -> None:
    """Refuse a corpus past the depth or size cap, before any work."""
    if depth > DEPTH_CAP:
        raise CapExceededError(f"depth {depth} exceeds corpus depth cap {DEPTH_CAP}")
    _check_size_cap(max_size)


def enumerate_semilattices(max_size: int) -> Iterator[FiniteJoinSemilattice]:
    """One join-semilattice with 0 per isomorphism class, sizes ascending."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    _check_size_cap(max_size)
    lattices: list[tuple[int, ...]] = [(1,)]
    for size in range(1, max_size + 1):
        if size > 1:
            lattices = _extend_lattices(lattices)
        for le in lattices:
            yield _realize(le)


def enumerate_contacts(lattice: FiniteJoinSemilattice) -> Iterator[ContactRelation]:
    """Every weak contact on the lattice exactly once.

    Reflexivity and monotonicity force all overlapping pairs, so a weak
    contact is the overlap relation plus an up-closed set of non-overlapping
    pairs.  The sets are walked from the highest pair down, excluding before
    including, so they come in ascending mask order: the pure overlap
    relation first and the all-pairs relation last.
    """
    ov = overlap_contact(lattice)
    size = lattice.size
    up = lattice.leq_masks
    optional = [
        (i, j)
        for i in range(1, size)
        for j in range(i + 1, size)
        if not ov.related(i, j)
    ]
    # Pairs are numbered in a linear extension of the order, so every pair
    # dominating pair q other than q itself has a higher number.  A relation
    # is packed into one int, row i at bits i * size onwards; pair (i, j)
    # with i < j is tested at bit i * size + j and added at both of its bits.
    at = [i * size + j for i, j in optional]
    above = []
    for q, (x, y) in enumerate(optional):
        mask = 0
        for r in range(q + 1, len(optional)):
            x1, y1 = optional[r]
            if ((up[x] >> x1) & 1 and (up[y] >> y1) & 1) or (
                (up[x] >> y1) & 1 and (up[y] >> x1) & 1
            ):
                mask |= 1 << at[r]
        above.append(mask)
    adds = [1 << bit | 1 << j * size + i for bit, (i, j) in zip(at, optional)]
    shifts = range(0, size * size, size)
    row = (1 << size) - 1
    # A state is (pairs still undecided, relation so far).  The pairs it
    # skips down to its next branching pair cannot join, so they stay out.
    stack = [(len(optional), sum(r << shift for r, shift in zip(ov.rows, shifts)))]
    while stack:
        q, packed = stack.pop()
        q -= 1
        while q >= 0 and above[q] & ~packed:
            q -= 1
        if q >= 0:
            stack.append((q, packed | adds[q]))
            stack.append((q, packed))
        else:
            yield ContactRelation(size, tuple([packed >> shift & row for shift in shifts]))


# ---------------------------------------------------------------------------
# isomorphism keys


def _class_key(least: tuple[int, ...], orbit: Iterable[tuple[int, ...]]) -> str:
    """Digest of the lattice's least order and the least member of an orbit
    in the least labelling."""
    return hashlib.sha256(repr((least, min(orbit))).encode()).hexdigest()


def _least_labellings(
    up: tuple[int, ...],
) -> tuple[tuple[int, ...], list[int], list[list[int]]]:
    """The least relabelled order of ``up``, the permutation p* giving it,
    and p* . a for every non-identity automorphism a: together they relabel
    an orbit of contacts into the least labelling."""
    least, best, automorphisms = _least_relabelling(up)
    return least, best, [[best[i] for i in a] for a in automorphisms]


def iso_class_key(cs: ContactStructure) -> str:
    """Digest shared exactly by isomorphic contact structures: the least
    relabelled (order, contact) pair over the permutations that fix 0
    within groups of equal (up-count, down-count).  The order determines
    the joins, so it stands for the whole lattice.  Costs the lattice's
    relabelling pass plus one relabelling per orbit member."""
    least, best, others = _least_labellings(cs.lattice.leq_masks)
    rows = cs.contact.rows
    return _class_key(least, [_apply_perm(rows, p) for p in [best, *others]])


# ---------------------------------------------------------------------------
# corpus classification


class CorpusRecord(NamedTuple):
    """One isomorphism class with its full profile and representability, at
    the depth in ``provenance``."""

    key: str
    structure: ContactStructure
    profile: AxiomProfile
    provenance: dict[str, int]

    def to_json(self) -> dict[str, Any]:
        """The corpus line's object.  Its structure is
        ``serialize.structure_to_json(self.structure)``, with the lattice's
        fields formatted once per lattice."""
        cs = self.structure
        fields = _lattice_fields(cs.lattice.width, cs.lattice.carrier)
        return {
            "key": self.key,
            "size": cs.size,
            "structure": {
                **fields,
                "carrier": list(fields["carrier"]),
                "contact": serialize.contact_pairs(cs.contact.rows),
            },
            "profile": self.profile.to_json(),
            "provenance": dict(self.provenance),
        }


@cache
def _lattice_fields(width: int, carrier: tuple[int, ...]) -> dict[str, Any]:
    """``serialize.structure_fields`` of a corpus lattice, kept per lattice:
    the lattices within SIZE_CAP are few (1,378 to size 9).  Callers copy
    the carrier list before handing it out."""
    lattice = FiniteJoinSemilattice.from_closed_carrier(width, carrier)
    return serialize.structure_fields(lattice, None)


def _relabelling(p: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Relabelling of rows by p with one lookup per row, in a table of the
    image under p of every mask."""
    inverse = _inverse(p)
    table = [0]
    for new in p:
        bit = 1 << new
        table += [image | bit for image in table]
    # tuple() of a list allocates exactly; of a generator it can keep the
    # spare room it grew, and the seen set holds every orbit member.
    return lambda rows: tuple([table[rows[i]] for i in inverse])


def _classify_lattice(
    lattice: FiniteJoinSemilattice, depth: int, provenance: dict[str, int]
) -> list[CorpusRecord]:
    """One record per Aut(L) orbit of contacts on the lattice L, keyed off
    its orbit and ordered by its first contact (see the module docstring),
    and profiled to ``depth``."""
    least, best, others = _least_labellings(lattice.leq_masks)
    to_least = _relabelling(best)
    to_orbit = [_relabelling(p) for p in others]
    records = []
    seen: set[tuple[int, ...]] = set()
    for contact in enumerate_contacts(lattice):
        rows = contact.rows
        first = to_least(rows)
        if first in seen:
            continue
        orbit = [first] + [relabel(rows) for relabel in to_orbit]
        seen.update(orbit)
        cs = ContactStructure(lattice, contact)
        profile = profile_of(cs, depth)._replace(
            weak_representable=isinstance(decide_weak_representable(cs), Representation),
            overlap_representable=isinstance(
                decide_overlap_representable(cs), Representation
            ),
        )
        records.append(CorpusRecord(_class_key(least, orbit), cs, profile, provenance))
    return records


def classify_corpus(max_size: int, depth: int = 3, threads: int = 1) -> list[CorpusRecord]:
    """Every class up to max_size, profiled to ``depth``; order is
    deterministic (by carrier size, then isomorphism key) and independent of
    threads.  One function classifies and profiles each lattice, in this
    process or in a worker."""
    check_corpus_caps(max_size, depth)
    provenance = {"max_size": max_size, "d2_max": depth}
    lattices = list(enumerate_semilattices(max_size))
    classify = partial(_classify_lattice, depth=depth, provenance=provenance)
    # A forked pool starts every worker at once, so ask for no more workers
    # than there are lattices or CPUs.
    workers = min(threads, len(lattices), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the pool machinery is a third of the package's
        # import time, and only a multi-process run uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(classify, lattices))
    else:
        chunks = map(classify, lattices)
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: (r.structure.size, r.key))
    return records


def corpus_implications(records: list[CorpusRecord]) -> list[dict[str, Any]]:
    """Check every implication the corpus is expected to satisfy.

    Violations are reported, never suppressed; a violation of any of these
    on a valid corpus is a finding about the deciders or the theory and
    fails the run.
    """
    overlap_rows: dict[FiniteJoinSemilattice, tuple[int, ...]] = {}

    def has_overlap_contact(r: CorpusRecord) -> bool:
        lattice = r.structure.lattice
        if lattice not in overlap_rows:
            overlap_rows[lattice] = overlap_contact(lattice).rows
        return r.structure.contact.rows == overlap_rows[lattice]

    checks = [
        (
            "d1-implies-d2minus",
            lambda r: (not r.profile.d1) or r.profile.d2_minus,
        ),
        (
            "overlap-and-d1-implies-d2all-and-add",
            lambda r: (not (has_overlap_contact(r) and r.profile.d1))
            or (r.profile.d2_all and r.profile.additive),
        ),
        (
            "weak-representable-iff-d1",
            lambda r: r.profile.weak_representable == r.profile.d1,
        ),
        (
            "overlap-representable-iff-d1-and-d2all",
            lambda r: r.profile.overlap_representable
            == (r.profile.d1 and r.profile.d2_all),
        ),
    ]
    report = []
    for name, holds in checks:
        violations = [r.key for r in records if not holds(r)]
        report.append(
            {"name": name, "checked": len(records), "violations": violations}
        )
    return report

