"""Decision procedures for the contact-semilattice axiom schemas.

Every checker returns a :class:`Verdict`: either a pass, or a fail carrying a
:class:`Witness` that re-validates against the structure using only core
operations (``revalidate_witness``).  Enumeration order is fixed (pairs,
then elements, ascending) so the first violation found is reproducible.

Axiom identifiers used throughout the package and the CLI:

==============  ================================================================
``weak-contact``  symmetry, reflexivity on nonzero, zero-freeness, monotonicity
``add``           a d (b+c) implies a d b or a d c
``d1``            one excluded pair: b <= a+c0 and b <= a+c1 imply b <= a
``d1plus``        n excluded pairs: b below a + every selector sum implies b <= a
``d2``            n excluded pairs: every selector sum bounds a or bounds b
                  implies a, b not in contact
``d2minus``       one-sided variant of d2 (see note below)
``d2all``         d2 at every level up to the number of excluded pairs
==============  ================================================================

A *selector* picks one component from each of n unrelated pairs; its *sum* is
the join of the picked components.  Two sound reductions keep the search
spaces small: a repeated pair only repeats summands, so level-n instances with
duplicates collapse to smaller distinct-pair instances, and a pair with a zero
component collapses to the instance without that pair.  Consequently the
``d2`` checker at level n scans distinct nonzero unrelated pairs at every size
m <= n, which also makes the level hierarchy explicitly monotone.

Column test.  An *admissible column* is a non-top element m lying above one
component of every non-contact pair (the prime-ideal ground points of the
representation layer).  Every selector sum over all non-contact pairs is
admissible or the top, and every admissible m lies above such a sum.  The
premises of d1+, d2 and d2minus only grow with the pair set, so a violation
exists at some level exactly when it exists over all pairs, where the
selector sums can be replaced by the columns.  The *image* of x is the set
of columns x is not below (``ContactStructure.canonical_images``); images
of joins are unions.  With D(x) the elements whose image lies inside x's:

* d1+ fails at some level iff D(a) is not inside the down-set of a for
  some a, iff two images collide (the weak refusal): a b in D(a) not below
  a gives a + b the image of a, and equal images put one element in the
  other's D without being below it;
* d2 fails at some level iff some contact pair (a, b) has every column
  above a or above b, i.e. disjoint images (the overlap refusal);
* d2minus fails with first pair (x1, y1) iff some b in D(x1) and a in
  D(y1) are in contact.

This test is polynomial in the carrier size and the number of pairs.  Each
pair-subset search runs only when the test finds a violation, and then
returns the least-level witness in the fixed enumeration order.  ``examined``
counts the elements (for d2minus, first-slot pairs) the test looks at plus
the candidates the search scans.

Note on ``d2minus``: two one-sided conventions are possible.  Here the b-side
bound is required exactly on selectors picking the first component of the
distinguished pair and the a-side bound on the remaining selectors; this is
the convention under which the axiom is a consequence of ``d1``.  For the
distinguished pair the zero-component reduction is unsound, so that slot also
ranges over pairs involving 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Any

from .core import (
    ContactStructure,
    FiniteJoinSemilattice,
    full_mask,
    iter_bits,
)


class InvalidContactError(ValueError):
    """Input relation is not a weak contact; carries the violated clause."""


@dataclass(frozen=True)
class Witness:
    """Role-labelled elements violating one axiom instance.

    ``elements`` maps schema roles (``a``, ``b``, ...) to carrier indices;
    ``pairs`` lists the unrelated pairs instantiating the schema.  For
    ``d2minus`` the first listed pair is oriented: its first component bounds
    the ``b`` side, its second the ``a`` side.
    """

    kind: str
    elements: tuple[tuple[str, int], ...]
    pairs: tuple[tuple[int, int], ...] = ()

    def element(self, role: str) -> int:
        for name, idx in self.elements:
            if name == role:
                return idx
        raise KeyError(role)

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "elements": {name: idx for name, idx in self.elements},
            "pairs": [list(p) for p in self.pairs],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Witness":
        return cls(
            kind=data["kind"],
            elements=tuple((str(k), int(v)) for k, v in data["elements"].items()),
            pairs=tuple((int(i), int(j)) for i, j in data["pairs"]),
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of one axiom check, with search statistics."""

    axiom: str
    params: dict[str, int]
    passed: bool
    witness: Witness | None
    examined: int = 0
    elapsed: float = 0.0

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict[str, Any]:
        return {
            "axiom": self.axiom,
            "params": dict(self.params),
            "verdict": self.outcome,
            "witness": None if self.witness is None else self.witness.to_json(),
            "stats": {"examined": self.examined, "elapsed_s": round(self.elapsed, 6)},
        }


@dataclass(frozen=True)
class AxiomProfile:
    """Flags for every schema at the requested depths.

    ``d1_plus[i]`` and ``d2[i]`` hold the level-(i+1) verdicts.  The
    representability flags start unset and are filled by the representation
    layer.
    """

    weak_contact: bool
    additive: bool
    d1: bool
    d1_plus: tuple[bool, ...]
    d2: tuple[bool, ...]
    d2_minus: bool
    d2_all: bool
    d2_all_least_failing: int | None
    weak_representable: bool | None = None
    overlap_representable: bool | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "weak_contact": self.weak_contact,
            "additive": self.additive,
            "d1": self.d1,
            "d1_plus": list(self.d1_plus),
            "d2": list(self.d2),
            "d2_minus": self.d2_minus,
            "d2_all": self.d2_all,
            "d2_all_least_failing": self.d2_all_least_failing,
            "weak_representable": self.weak_representable,
            "overlap_representable": self.overlap_representable,
        }


def _timed(axiom: str, params: dict[str, int], witness: Witness | None,
           examined: int, start: float) -> Verdict:
    return Verdict(axiom, params, witness is None, witness,
                   examined, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# weak contact validity


def check_weak_contact(cs: ContactStructure) -> Verdict:
    """Symmetry, reflexivity on nonzero, zero-freeness and monotonicity.

    Monotonicity is checked as up-closure of each row, which together with
    symmetry is equivalent to the two-sided condition; the witness is always
    reported in the two-sided form (a d b, a <= a1, b <= b1, not a1 d b1).

    ``ContactStructure.is_weak_contact`` decides validity first, checking
    symmetry and up-closure on the related or the unrelated side of the whole
    relation, whichever is smaller (see there for why the side cannot be
    chosen row by row).  A pass reports what the scan below would have
    examined; only a fail runs the scan, for the first violation in the fixed
    order.
    """
    start = time.perf_counter()
    if cs.is_weak_contact:
        examined = cs.size - 1 + 2 * sum(row.bit_count() for row in cs.contact.rows)
        return _timed("weak-contact", {}, None, examined, start)
    return _weak_contact_scan(cs, start)


def _weak_contact_scan(cs: ContactStructure, start: float) -> Verdict:
    """Every clause pair by pair: the nonzero diagonal and zero column, then
    symmetry over all related pairs, then up-closure of every row."""
    lattice, rel = cs.lattice, cs.contact
    size = lattice.size
    examined = 0

    def fail(kind: str, roles: tuple[tuple[str, int], ...]) -> Verdict:
        return _timed("weak-contact", {}, Witness(kind, roles), examined, start)

    if rel.rows[0]:
        j = next(iter_bits(rel.rows[0]))
        return fail("zero", (("a", 0), ("b", j)))
    for i in range(1, size):
        examined += 1
        if (rel.rows[i] >> 0) & 1:
            return fail("zero", (("a", i), ("b", 0)))
        if not (rel.rows[i] >> i) & 1:
            return fail("reflexivity", (("a", i),))
    for i in range(size):
        for j in iter_bits(rel.rows[i]):
            examined += 1
            if not (rel.rows[j] >> i) & 1:
                return fail("symmetry", (("a", i), ("b", j)))
    up = lattice.leq_masks
    for i in range(1, size):
        row = rel.rows[i]
        for j in iter_bits(row):
            examined += 1
            missing = up[j] & ~row
            if missing:
                b1 = next(iter_bits(missing))
                return fail(
                    "extension",
                    (("a", i), ("b", j), ("a1", i), ("b1", b1)),
                )
    return _timed("weak-contact", {}, None, examined, start)


def require_weak_contact(cs: ContactStructure) -> None:
    if cs.is_weak_contact:
        return
    verdict = check_weak_contact(cs)
    assert verdict.witness is not None
    raise InvalidContactError(
        f"not a weak contact relation: {verdict.witness.kind} violated at "
        f"{dict(verdict.witness.elements)}"
    )


# ---------------------------------------------------------------------------
# additivity


def check_additive(cs: ContactStructure) -> Verdict:
    """a d (b+c) implies a d b or a d c, over all triples."""
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
            rest = strangers >> b
            for off in iter_bits(rest):
                c = b + off
                examined += 1
                if (row >> lattice.join(b, c)) & 1:
                    witness = Witness("add", (("a", a), ("b", b), ("c", c)))
                    return _timed("add", {}, witness, examined, start)
    return _timed("add", {}, None, examined, start)


# ---------------------------------------------------------------------------
# shared selector machinery


def _selector_sums(
    lattice: FiniteJoinSemilattice, combo: tuple[tuple[int, int], ...]
) -> list[int]:
    """Carrier indices of all 2^m selector sums; selector bit i picks the
    second component of pair i."""
    carrier, index = lattice.carrier, lattice.index
    sums = [0]
    for x, y in combo:
        cx, cy = carrier[x], carrier[y]
        sums = [s | cx for s in sums] + [s | cy for s in sums]
    return [index[s] for s in sums]


def _common_bound(lattice: FiniteJoinSemilattice, x: int, sums: list[int]) -> int:
    """Elements below x + s for every selector sum s; 0 once the meet empties."""
    below = lattice.below_masks
    bounded = full_mask(lattice.size)
    for s in sums:
        bounded &= below[lattice.join(x, s)]
        if not bounded:
            break
    return bounded


def _d1plus_violated(cs: ContactStructure) -> bool:
    """Column test: d1+ fails at some level, i.e. two images collide."""
    return cs.image_collision is not None


def _d2_violated(cs: ContactStructure) -> bool:
    """Column test: d2 fails at some level, i.e. a contact pair has disjoint images."""
    rows, disjoint = cs.contact.rows, cs.disjoint_images
    return any(rows[a] & disjoint[a] for a in range(1, cs.size))


def _first_d1plus_violation(
    cs: ContactStructure, max_size: int
) -> tuple[int | None, Witness | None, int]:
    """Least pair-count m <= max_size at which d1+ has a violation; the
    search runs only if the column test finds one at some level."""
    lattice = cs.lattice
    examined = lattice.size
    if not _d1plus_violated(cs):
        return None, None, examined
    below = lattice.below_masks
    pairs = cs.contact.noncontact_pairs()
    for m in range(1, min(max_size, len(pairs)) + 1):
        for combo in combinations(pairs, m):
            sums = _selector_sums(lattice, combo)
            for a in range(lattice.size):
                examined += 1
                bad = _common_bound(lattice, a, sums) & ~below[a]
                if bad:
                    b = next(iter_bits(bad))
                    witness = Witness("d1plus", (("a", a), ("b", b)), combo)
                    return m, witness, examined
    return None, None, examined


def check_d1_plus(cs: ContactStructure, n: int) -> Verdict:
    """Level-n bound-absorption schema (d1 is the n=1 case)."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    start = time.perf_counter()
    _, witness, examined = _first_d1plus_violation(cs, n)
    return _timed("d1plus", {"n": n}, witness, examined, start)


def check_d1(cs: ContactStructure) -> Verdict:
    """b <= a+c0 and b <= a+c1 with c0, c1 not in contact imply b <= a."""
    verdict = check_d1_plus(cs, 1)
    witness = verdict.witness
    if witness is not None:
        witness = replace(witness, kind="d1")
    return Verdict("d1", {}, verdict.passed, witness, verdict.examined, verdict.elapsed)


# ---------------------------------------------------------------------------
# d2 family


def _first_d2_violation(
    cs: ContactStructure,
    max_size: int,
    levels: list[tuple[int, float]] | None = None,
) -> tuple[int | None, Witness | None, int]:
    """Least pair-count m <= max_size at which d2 has a violation.  Each
    level the scan completes appends its ``examined`` count and the clock
    to ``levels``, if given.

    For each pair combination, each element gets a domination profile: the
    set of selectors whose sum bounds it, as a 2^m-bit mask.  A violating
    pair is a contact pair whose profiles cover all selectors.  Refining the
    carrier by the down-set of each selector sum in turn groups the elements
    by profile without a per-element pass over the selectors.  The partners
    of a are the union of the groups whose profile contains the selectors
    missing from a's, memoized per missing set, so the least b >= a in
    contact with a is one bit operation on its row.  Elements are taken in
    ascending order, so the witness is the least a with its least b.  The
    search runs only if the column test finds a violation at some level.
    """
    lattice, rel = cs.lattice, cs.contact
    size = lattice.size
    examined = size
    if not _d2_violated(cs):
        return None, None, examined
    below = lattice.below_masks
    rows = rel.rows
    everything = full_mask(size)
    pairs = rel.noncontact_pairs()
    for m in range(1, min(max_size, len(pairs)) + 1):
        full_profile = full_mask(1 << m)
        for combo in combinations(pairs, m):
            groups = {0: everything}
            for f, s in enumerate(_selector_sums(lattice, combo)):
                bit, down = 1 << f, below[s]
                refined = {}
                for prof, members in groups.items():
                    inside = members & down
                    if inside:
                        refined[prof | bit] = inside
                    if inside != members:
                        refined[prof] = members ^ inside
                groups = refined
            profiles = [0] * size
            for prof, members in groups.items():
                for e in iter_bits(members):
                    profiles[e] = prof
            partners_by_need: dict[int, int] = {}
            for a in range(1, size):
                examined += 1
                need = full_profile ^ profiles[a]
                partners = partners_by_need.get(need)
                if partners is None:
                    partners = 0
                    for prof, members in groups.items():
                        if prof & need == need:
                            partners |= members
                    partners_by_need[need] = partners
                hit = (rows[a] & partners) >> a
                if hit:
                    b = a + (hit & -hit).bit_length() - 1
                    return m, Witness("d2", (("a", a), ("b", b)), combo), examined
        if levels is not None:
            levels.append((examined, time.perf_counter()))
    return None, None, examined


def check_d2(cs: ContactStructure, n: int) -> Verdict:
    """Level-n separation schema over distinct nonzero unrelated pairs.

    Covers every instance with repeated or zero-component pairs through the
    reductions described in the module docstring, hence fails whenever any
    level m <= n fails.
    """
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    start = time.perf_counter()
    _, witness, examined = _first_d2_violation(cs, n)
    return _timed("d2", {"n": n}, witness, examined, start)


def check_d2_levels(cs: ContactStructure, depth: int) -> list[Verdict]:
    """``check_d2`` at every level 1..depth from one scan to ``depth``, for
    callers that want every level (``sn``); it returns ``depth`` verdicts.  A
    level below the least failing one takes the ``examined`` count and time
    at which the scan completed it; every other level takes the scan's own
    outcome, witness and count."""
    if depth < 1:
        raise ValueError(f"level must be positive, got {depth}")
    start = time.perf_counter()
    levels: list[tuple[int, float]] = []
    _, witness, examined = _first_d2_violation(cs, depth, levels)
    passed = [
        Verdict("d2", {"n": n}, True, None, count, at - start)
        for n, (count, at) in enumerate(levels, start=1)
    ]
    return passed + [
        _timed("d2", {"n": n}, witness, examined, start)
        for n in range(len(levels) + 1, depth + 1)
    ]


def decide_d2_all(cs: ContactStructure) -> Verdict:
    """d2 at every level; levels beyond the distinct-pair count only repeat
    summands, so the scan is exhaustive.  It fails iff some contact pair
    (a, b) has every admissible column above a or above b, which the column
    test decides in polynomial time; only then does the pair-subset search
    run, and the fail reports the least level with its witness."""
    start = time.perf_counter()
    bound = len(cs.contact.noncontact_pairs())
    m, witness, examined = _first_d2_violation(cs, bound)
    if witness is None:
        return _timed("d2all", {"n_max": bound}, None, examined, start)
    return _timed("d2all", {"n_max": bound, "least_failing_n": m}, witness,
                  examined, start)


def check_d2_minus(cs: ContactStructure) -> Verdict:
    """One-sided d2: the first pair's components bound b and a respectively,
    the remaining selector structure bounds both sides symmetrically.

    The distinguished slot ranges over every unrelated unordered pair,
    including pairs involving 0 (those do not reduce away on this slot);
    remaining slots range over distinct nonzero unrelated pairs.  Orientation
    of the distinguished pair is absorbed by scanning ordered (a, b).

    A distinguished pair (x1, y1) is searched only if the column test finds
    some b in D(x1) in contact with some a in D(y1): with all remaining pairs
    in play, D(x1) and D(y1) are exactly the b-side and a-side bounds.
    """
    start = time.perf_counter()
    lattice, rel = cs.lattice, cs.contact
    size = lattice.size
    nonzero_pairs = rel.noncontact_pairs()
    first_slot = [
        (i, j)
        for i in range(size)
        for j in range(i, size)
        if not (rel.rows[i] >> j) & 1
    ]
    domains = cs.column_domains
    reach = []
    for dom in domains:
        touched = 0
        for b in iter_bits(dom):
            touched |= rel.rows[b]
        reach.append(touched)
    examined = 0
    for x1, y1 in first_slot:
        examined += 1
        if not reach[x1] & domains[y1]:
            continue
        pool = [p for p in nonzero_pairs if p != (x1, y1)]
        for r in range(len(pool) + 1):
            for rest in combinations(pool, r):
                examined += 1
                sums = _selector_sums(lattice, rest)
                side_b = _common_bound(lattice, x1, sums)
                if not side_b:
                    continue
                side_a = _common_bound(lattice, y1, sums)
                if not side_a:
                    continue
                for b in iter_bits(side_b):
                    hit = rel.rows[b] & side_a
                    if hit:
                        a = next(iter_bits(hit))
                        witness = Witness(
                            "d2minus",
                            (("a", a), ("b", b)),
                            ((x1, y1),) + rest,
                        )
                        return _timed("d2minus", {}, witness, examined, start)
    return _timed("d2minus", {}, None, examined, start)


# ---------------------------------------------------------------------------
# profiles and witness re-validation


def profile_of(
    cs: ContactStructure, d1_plus_max: int = 3, d2_max: int = 3
) -> AxiomProfile:
    """Run every checker at the given depths; deterministic.  The weak
    contact check is the first thing ``check_additive`` does."""
    additive = check_additive(cs).passed
    # A missing violation means the schema holds at every level, not just the
    # scanned ones: levels beyond the distinct-pair count only repeat summands.
    # d1 is d1+ at level 1, so the scan reaches level 1 at least.
    m1, _, _ = _first_d1plus_violation(cs, max(d1_plus_max, 1))
    bound = len(cs.contact.noncontact_pairs())
    m2, _, _ = _first_d2_violation(cs, bound)
    first1 = m1 if m1 is not None else float("inf")
    first2 = m2 if m2 is not None else float("inf")
    return AxiomProfile(
        weak_contact=True,
        additive=additive,
        d1=1 < first1,
        d1_plus=tuple(n < first1 for n in range(1, d1_plus_max + 1)),
        d2=tuple(n < first2 for n in range(1, d2_max + 1)),
        d2_minus=check_d2_minus(cs).passed,
        d2_all=m2 is None,
        d2_all_least_failing=m2,
    )


def revalidate_witness(
    cs: ContactStructure, axiom: str, params: dict[str, int], witness: Witness
) -> bool:
    """Re-check a fail witness: premises hold and the conclusion fails,
    using only core-algebra operations."""
    lattice, rel = cs.lattice, cs.contact
    related = rel.related
    leq = lattice.leq
    join = lattice.join
    roles = dict(witness.elements)

    if axiom == "weak-contact":
        if witness.kind == "zero":
            return related(roles["a"], roles["b"]) and (
                roles["a"] == 0 or roles["b"] == 0
            )
        if witness.kind == "reflexivity":
            a = roles["a"]
            return a != 0 and not related(a, a)
        if witness.kind == "symmetry":
            return related(roles["a"], roles["b"]) and not related(
                roles["b"], roles["a"]
            )
        if witness.kind == "extension":
            a, b, a1, b1 = roles["a"], roles["b"], roles["a1"], roles["b1"]
            return (
                related(a, b)
                and leq(a, a1)
                and leq(b, b1)
                and not related(a1, b1)
            )
        return False

    if axiom == "add":
        a, b, c = roles["a"], roles["b"], roles["c"]
        return (
            related(a, join(b, c)) and not related(a, b) and not related(a, c)
        )

    if axiom in ("d1", "d1plus"):
        a, b = roles["a"], roles["b"]
        if any(related(x, y) for x, y in witness.pairs):
            return False
        sums = _selector_sums(lattice, witness.pairs)
        return all(leq(b, join(a, s)) for s in sums) and not leq(b, a)

    if axiom in ("d2", "d2all"):
        a, b = roles["a"], roles["b"]
        if any(related(x, y) for x, y in witness.pairs):
            return False
        sums = _selector_sums(lattice, witness.pairs)
        return all(leq(b, s) or leq(a, s) for s in sums) and related(a, b)

    if axiom == "d2minus":
        a, b = roles["a"], roles["b"]
        if not witness.pairs or any(related(x, y) for x, y in witness.pairs):
            return False
        (x1, y1), rest = witness.pairs[0], witness.pairs[1:]
        sums = _selector_sums(lattice, rest)
        return (
            all(leq(b, join(x1, s)) for s in sums)
            and all(leq(a, join(y1, s)) for s in sums)
            and related(a, b)
        )

    raise ValueError(f"unknown axiom identifier {axiom!r}")


CHECKERS = {
    "weak-contact": lambda cs, params: check_weak_contact(cs),
    "add": lambda cs, params: check_additive(cs),
    "d1": lambda cs, params: check_d1(cs),
    "d1plus": lambda cs, params: check_d1_plus(cs, params.get("n", 1)),
    "d2": lambda cs, params: check_d2(cs, params.get("n", 1)),
    "d2minus": lambda cs, params: check_d2_minus(cs),
    "d2all": lambda cs, params: decide_d2_all(cs),
}
