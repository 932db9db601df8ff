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
  D(y1) are in contact.  D(x) is read off the ground points: a selector
  misses a point p iff each pair has a component without p, so the points
  in every selector sum over a pair set Q are common(Q), those in both
  components of some pair of Q (``_common_points``).  Joins are unions,
  so x + s bounds z for every such s iff z lies inside x | common(Q).
  D(x) is the subsets of x | common(P), and the witness search bounds
  each pair set the same way, with no selector sums.

This test is polynomial in the carrier size and the number of pairs.  Each
search for a witness runs only when the test finds a violation.

d1 implies d1+ at every level: if b is below a + s + xn and a + s + yn for
every selector sum s over the first n - 1 pairs, d1 at a + s gives
b <= a + s, and n - 1 such peelings give b <= a.  So d1+ fails first at
level 1 or never, and every level's check is d1's scan, witness and count.

The d2 search is the image test again, with one pair set's selector sums
as the columns (``FiniteJoinSemilattice.images_over`` and ``meets``): every
sum bounds a or bounds b iff the images of a and b over the sums are
disjoint.  It returns the least-level witness, and resumes above the
deepest level an earlier search on the structure passed, counting skipped
levels as a scan would: levels 1..n one call at a time cost one pass.
Its last level, |P| for P the non-contact pairs, is the column test
itself: the one set of all the pairs has the selector sums over all pairs,
each an admissible column or the top, and every admissible column lies
above one of them.  So a and b have disjoint images over those sums iff
they do over the columns, and that level reads ``disjoint_images``, which
the column test has already built, instead of 2^|P| sums.
``examined`` counts the elements (for d2minus, first-slot pairs) the test
looks at plus the candidates the search scans.

On a weak contact, d2 holds at level 1: if x and y each bound a or b for a
contact pair a d b, monotonicity gives x d y (with reflexivity on a nonzero
a or b, or symmetry in the mixed case), so (x, y) is no non-contact pair.
The d2 walk therefore starts at level 2 there, counting level 1 as skipped;
on any other relation it starts at level 1, where it can fail.

``profile_of`` keeps flags, not witnesses, so it takes d1 (d1+'s verdict
at every level) and d2minus from their column tests and runs neither
search.  It runs d2 up to the pair count, whose least failing level gives
``d2_all`` and the d2 flags to ``depth``; that search runs only past its
column test.

Note on ``d2minus``: two one-sided conventions are possible.  Here the b-side
bound is required exactly on selectors picking the first component of the
distinguished pair and the a-side bound on the remaining selectors; this is
the convention under which the axiom is a consequence of ``d1`` (d1+ at x1
and at y1 gives b <= x1 and a <= y1, so a d b would put x1 in contact with
y1).  For the
distinguished pair the zero-component reduction is unsound, so that slot also
ranges over pairs involving 0.
"""

from __future__ import annotations

import time
from itertools import combinations
from math import comb
from typing import Any, Iterable, Iterator, NamedTuple

from .core import (
    ContactStructure,
    FiniteJoinSemilattice,
    full_mask,
    iter_bits,
)


class InvalidContactError(ValueError):
    """Input relation is not a weak contact; carries the violated clause."""


class Witness(NamedTuple):
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
        """The witness of ``to_json``; ValueError unless every index is an
        int (``type(v) is int``: not a bool, a float or a string)."""
        elements = tuple((str(k), v) for k, v in data["elements"].items())
        pairs = tuple((i, j) for i, j in data["pairs"])
        indices = [v for _, v in elements] + [v for pair in pairs for v in pair]
        if any(type(v) is not int for v in indices):
            raise ValueError(f"witness indices must be ints, got {data!r}")
        return cls(kind=data["kind"], elements=elements, pairs=pairs)


class Verdict(NamedTuple):
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


class AxiomProfile(NamedTuple):
    """Flags for every schema at the requested depth.

    ``d2[i]`` holds the level-(i+1) verdict; ``d1`` is also d1+'s at every
    level.  The representability flags start unset; the corpus fills them
    from the representation deciders.
    """

    weak_contact: bool
    additive: bool
    d1: bool
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

    ``ContactStructure.weak_contact_violation`` decides validity and names
    the first violation of a pair-by-pair scan with that scan's ``examined``,
    in time linear in the smaller side of the relation.  A pass reports what
    the scan examines on a valid relation: the size - 1 nonzero diagonal
    entries and every related entry twice, once per clause.
    """
    start = time.perf_counter()
    violation = cs.weak_contact_violation
    if violation is None:
        examined = cs.size - 1 + 2 * sum(row.bit_count() for row in cs.contact.rows)
        return _timed("weak-contact", {}, None, examined, start)
    kind, roles, examined = violation
    return _timed("weak-contact", {}, Witness(kind, roles), examined, start)


def require_weak_contact(cs: ContactStructure) -> None:
    violation = cs.weak_contact_violation
    if violation is not None:
        kind, roles, _ = violation
        raise InvalidContactError(
            f"not a weak contact relation: {kind} violated at {dict(roles)}"
        )


# ---------------------------------------------------------------------------
# additivity


def check_additive(cs: ContactStructure) -> Verdict:
    """a d (b+c) implies a d b or a d c, over all triples: for each nonzero
    a, the b <= c ascending among the nonzero elements not in contact with
    a, with b + c read off the carrier."""
    require_weak_contact(cs)
    start = time.perf_counter()
    carrier, index = cs.lattice.carrier, cs.lattice.index
    rows, nonzero = cs.contact.rows, full_mask(cs.size) ^ 1
    examined = 0
    for a in range(1, cs.size):
        row = rows[a]
        strangers = nonzero & ~row
        for b in iter_bits(strangers):
            bits = carrier[b]
            rest = strangers >> b << b
            while rest:
                low = rest & -rest
                c = low.bit_length() - 1
                examined += 1
                if (row >> index[bits | carrier[c]]) & 1:
                    witness = Witness("add", (("a", a), ("b", b), ("c", c)))
                    return _timed("add", {}, witness, examined, start)
                rest ^= low
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


def _common_points(
    lattice: FiniteJoinSemilattice, pairs: Iterable[tuple[int, int]]
) -> int:
    """The ground points in every selector sum over ``pairs``: those in both
    components of some pair.  A selector misses a point p iff each pair has
    a component without p.  So, joins being unions, x + s bounds b for every
    selector sum s iff b lies inside x and these points."""
    carrier = lattice.carrier
    common = 0
    for x, y in pairs:
        common |= carrier[x] & carrier[y]
    return common


def _d1plus_violated(cs: ContactStructure) -> bool:
    """Column test: d1+ fails at some level, i.e. two images collide."""
    return cs.image_collision is not None


def _d2_violated(cs: ContactStructure) -> bool:
    """Column test: d2 fails at some level, i.e. a contact pair has disjoint images."""
    rows, disjoint = cs.contact.rows, cs.disjoint_images
    return any(rows[a] & disjoint[a] for a in range(1, cs.size))


def _d2minus_slots(cs: ContactStructure) -> Iterator[tuple[int, int, bool]]:
    """The first-slot pairs (x1, y1) of d2minus in scan order, each with the
    column test's answer: whether some b in D(x1) is in contact with some a
    in D(y1), D(x) the elements inside carrier[x] | common(P), P all the
    non-contact pairs (``_common_points``).  With all remaining pairs in
    play, D(x1) and D(y1) are exactly the b-side and a-side bounds, so
    d2minus fails with first pair (x1, y1) iff the answer is yes.  Each
    D(x) is built at most once, on first use in either role: as x1 for an
    x1 with a partner, as y1 only when D(x1) reaches some contact."""
    lattice, rows, size = cs.lattice, cs.contact.rows, cs.size
    carrier, everything = lattice.carrier, full_mask(size)
    common = _common_points(lattice, cs.contact.noncontact_pairs())
    bounds: list[int | None] = [None] * size  # D(x), once built
    for x1 in range(size):
        partners = (everything & ~rows[x1]) >> x1
        if not partners:
            continue
        if bounds[x1] is None:
            bounds[x1] = lattice.subsets_of(carrier[x1] | common)
        reach = 0
        for b in iter_bits(bounds[x1]):
            reach |= rows[b]
        for off in iter_bits(partners):
            y1 = x1 + off
            if reach and bounds[y1] is None:
                bounds[y1] = lattice.subsets_of(carrier[y1] | common)
            yield x1, y1, bool(reach and reach & bounds[y1])


def _d2minus_violated(cs: ContactStructure) -> bool:
    """Column test: d2minus fails with some first pair."""
    return any(violated for _, _, violated in _d2minus_slots(cs))


def _first_d1plus_violation(
    cs: ContactStructure, max_size: int
) -> tuple[int | None, Witness | None, int]:
    """The first d1 violation, which is d1+'s at every level, so at any
    ``max_size``: over the non-contact pairs (x, y), then a, ascending, the
    least b below a + x and a + y but not below a.  It runs only past the
    column test, and then finds one.  ``examined`` counts the elements plus
    the (pair, a) scanned."""
    lattice = cs.lattice
    size = lattice.size
    if not _d1plus_violated(cs):
        return None, None, size
    below, join = lattice.below_masks, lattice.join
    examined = size
    for x, y in cs.contact.noncontact_pairs():
        for a in range(size):
            examined += 1
            bad = below[join(a, x)] & below[join(a, y)] & ~below[a]
            if bad:
                b = next(iter_bits(bad))
                return 1, Witness("d1plus", (("a", a), ("b", b)), ((x, y),)), examined
    return None, None, examined


def check_d1_plus(cs: ContactStructure, n: int) -> Verdict:
    """Level-n bound-absorption schema (d1 is the n=1 case).  d1 implies it
    at every level, so each level gives d1's verdict, witness and count."""
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
        witness = witness._replace(kind="d1")
    return Verdict("d1", {}, verdict.passed, witness, verdict.examined, verdict.elapsed)


# ---------------------------------------------------------------------------
# d2 family


def _first_d2_violation(
    cs: ContactStructure, max_size: int
) -> tuple[int | None, Witness | None, int]:
    """Least pair-count m <= max_size at which d2 has a violation.

    Pair sets go by size, then in lexicographic order; each is decided by
    the images over its selector sums (module docstring), and the witness
    is the least a with its least b >= a (``cs.first_uncovered_pair``).
    Level |P| has one set, all the pairs, whose relation is the column
    test's ``cs.disjoint_images``, so that level scans no pair set.
    ``examined`` counts the elements, then a on a hit and size - 1 per pair
    set otherwise.  The deepest level passed is kept on ``cs``; a later walk
    skips to it, or past level 1 on a weak contact, counting C(|P|, j) sets
    per skipped level j.
    """
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
            if m == len(pairs):  # all the pairs: the column test's relation
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


def check_d2(cs: ContactStructure, n: int) -> Verdict:
    """Level-n separation schema over distinct nonzero unrelated pairs.

    Covers every instance with repeated or zero-component pairs through the
    reductions described in the module docstring, hence fails whenever any
    level m <= n fails.  Calls for levels 1..n on one structure cost one
    pass: each resumes where the last stopped, with a fresh call's count.
    """
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    start = time.perf_counter()
    _, witness, examined = _first_d2_violation(cs, n)
    return _timed("d2", {"n": n}, witness, examined, start)


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
    a violation with it (``_d2minus_slots``); the search then gives the
    witness with the fewest remaining pairs.  Each remaining set ``rest``
    costs one OR per pair and two ``subsets_of`` calls: b's bound is the
    elements inside carrier[x1] | common(rest), a's the same with y1.
    Both always hold 0, so every set reaches the contact scan.
    """
    start = time.perf_counter()
    lattice, rel = cs.lattice, cs.contact
    carrier = lattice.carrier
    nonzero_pairs = rel.noncontact_pairs()
    examined = 0
    for x1, y1, violated in _d2minus_slots(cs):
        examined += 1
        if not violated:
            continue
        pool = [p for p in nonzero_pairs if p != (x1, y1)]
        for r in range(len(pool) + 1):
            for rest in combinations(pool, r):
                examined += 1
                common = _common_points(lattice, rest)
                side_b = lattice.subsets_of(carrier[x1] | common)
                side_a = lattice.subsets_of(carrier[y1] | common)
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


def profile_of(cs: ContactStructure, depth: int = 3) -> AxiomProfile:
    """Every schema's flags, d2 at levels 1..depth; deterministic.  The
    weak contact check is the first thing ``check_additive`` does.  A flag
    needs no witness, so d1 (which d1+ repeats at every level) and d2minus
    are their column tests alone."""
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    additive = check_additive(cs).passed
    d1 = not _d1plus_violated(cs)
    # A missing violation means d2 holds at every level, not just the
    # scanned ones: levels beyond the distinct-pair count only repeat summands.
    m2, _, _ = _first_d2_violation(cs, len(cs.contact.noncontact_pairs()))
    first2 = m2 if m2 is not None else float("inf")
    return AxiomProfile(
        weak_contact=True,
        additive=additive,
        d1=d1,
        d2=tuple(n < first2 for n in range(1, depth + 1)),
        d2_minus=not _d2minus_violated(cs),
        d2_all=m2 is None,
        d2_all_least_failing=m2,
    )


# The witness kind each axiom's checker writes; d2all reports d2's witness.
WITNESS_KINDS = {
    "add": "add",
    "d1": "d1",
    "d1plus": "d1plus",
    "d2": "d2",
    "d2all": "d2",
    "d2minus": "d2minus",
}

# The role names of each witness kind: the checkers' kinds, and for
# weak-contact the clause it violates.
WITNESS_ROLES = {
    "add": {"a", "b", "c"},
    **dict.fromkeys(("d1", "d1plus", "d2", "d2minus", "zero", "symmetry"), {"a", "b"}),
    "reflexivity": {"a"},
    "extension": {"a", "b", "a1", "b1"},
}


def revalidate_witness(
    cs: ContactStructure, axiom: str, params: dict[str, int], witness: Witness
) -> bool:
    """Re-check a fail witness: premises hold and the conclusion fails,
    using only core-algebra operations.  The witness must have the kind the
    axiom's checker writes (``WITNESS_KINDS``; any violated clause for
    weak-contact) and exactly that kind's roles (``WITNESS_ROLES``), and a
    witness of d1 at most one pair, of d1plus or d2 at level n (1 unless
    given, as in ``CHECKERS``) at most n."""
    lattice, rel = cs.lattice, cs.contact
    related = rel.related
    leq = lattice.leq
    join = lattice.join
    roles = dict(witness.elements)
    if axiom in WITNESS_KINDS and witness.kind != WITNESS_KINDS[axiom]:
        return False
    if witness.kind in WITNESS_ROLES and roles.keys() != WITNESS_ROLES[witness.kind]:
        return False
    if axiom in ("d1", "d1plus", "d2"):
        level = 1 if axiom == "d1" else params.get("n", 1)
        if len(witness.pairs) > level:
            return False

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
