"""Independent reference mathematics for checking contactlab's outputs.

Nothing here imports contactlab.  A structure is a sorted, union-closed list
of bit masks (``carrier``, index 0 the empty set) plus its contact relation,
given as related index pairs ``(i, j)`` with ``0 < i < j`` (the nonzero
diagonal is implied) or as per-element row masks.  Every function is a literal transcription of a definition, written
for clarity rather than speed, so that it shares no algorithm with the
program it checks.
"""

from __future__ import annotations

from itertools import product

# Number of join-semilattices with 0 (equivalently lattices) on k unlabelled
# elements, k = 1..7: OEIS A006966.
A006966 = (1, 1, 1, 2, 5, 15, 53)

# Weak-contact join-semilattices up to isomorphism on carriers of size <= 7.
# Pinned: a faster isomorphism dedupe must reproduce it exactly.
CORPUS_CLASSES_UP_TO_7 = 558


def closure(generators: list[int]) -> list[int]:
    """Smallest union-closed family holding 0 and the generators, sorted."""
    family = {0}
    while True:
        grown = family | {x | g for x in family for g in generators}
        if grown == family:
            return sorted(family)
        family = grown


def separator_carrier(n: int) -> list[int]:
    """Carrier of the level-n separator over the 2^n valuation points.

    Generators: each coordinate half-space and its complement, and the two
    parity classes of valuations (the even and odd parity products).
    """
    points = range(1 << n)
    gens = []
    for i in range(n):
        half = sum(1 << p for p in points if (p >> i) & 1)
        gens += [half, ((1 << (1 << n)) - 1) ^ half]
    even = sum(1 << p for p in points if bin(p).count("1") % 2 == 0)
    gens += [even, ((1 << (1 << n)) - 1) ^ even]
    return closure(gens)


def subset(x: int, y: int) -> bool:
    return x & ~y == 0


def atoms(carrier: list[int]) -> list[int]:
    """Indices of the minimal nonzero elements."""
    return [
        i
        for i, x in enumerate(carrier)
        if x and not any(y and y != x and subset(y, x) for y in carrier)
    ]


def overlap_related(carrier: list[int]) -> set[tuple[int, int]]:
    """Pairs with a common nonzero lower bound in the carrier."""
    nonzero = carrier[1:]
    return {
        (i, j)
        for i in range(1, len(carrier))
        for j in range(i + 1, len(carrier))
        if any(subset(x, carrier[i] & carrier[j]) for x in nonzero)
    }


def up_close(
    carrier: list[int], related: set[tuple[int, int]], seeds: list[tuple[int, int]]
) -> set[tuple[int, int]]:
    """``related`` plus every pair lying above a seed pair, either way round."""
    out = set(related)
    for p, q in seeds:
        for i, x in enumerate(carrier):
            for j, y in enumerate(carrier):
                if i < j and (
                    (subset(carrier[p], x) and subset(carrier[q], y))
                    or (subset(carrier[q], x) and subset(carrier[p], y))
                ):
                    out.add((i, j))
    return out


class Structure:
    """Carrier plus contact, with the literal relation and join.

    ``rows[i]`` has bit ``j`` when ``i`` and ``j`` are related; the nonzero
    diagonal is always set.
    """

    def __init__(self, width: int, carrier: list[int], rows: list[int]):
        self.width = width
        self.carrier = carrier
        self.rows = [row | (1 << i if i else 0) for i, row in enumerate(rows)]
        self.index = {x: i for i, x in enumerate(carrier)}

    @classmethod
    def from_pairs(
        cls, width: int, carrier: list[int], related: set[tuple[int, int]]
    ) -> "Structure":
        rows = [0] * len(carrier)
        for i, j in related:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(width, carrier, rows)

    @classmethod
    def from_json(cls, data: dict) -> "Structure":
        carrier = [int(h, 16) for h in data["carrier"]]
        return cls.from_pairs(
            data["ground_size"], carrier, {(i, j) for i, j in data["contact"]}
        )

    def rel(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def noncontact(self) -> list[tuple[int, int]]:
        size = len(self.carrier)
        return [
            (i, j)
            for i in range(1, size)
            for j in range(i + 1, size)
            if not self.rel(i, j)
        ]

    def join(self, i: int, j: int) -> int:
        return self.index[self.carrier[i] | self.carrier[j]]

    def selector_sums(self, pairs: list[tuple[int, int]]) -> list[int]:
        """Carrier masks of the joins picking one component of each pair."""
        return [
            _union(self.carrier[c] for c in choice) for choice in product(*pairs)
        ]

    def to_json(self) -> dict:
        digits = max(1, (self.width + 3) // 4)
        return {
            "version": 1,
            "ground_size": self.width,
            "carrier": [f"{x:0{digits}x}" for x in self.carrier],
            "zero": 0,
            "contact": [
                [i, j]
                for i in range(len(self.carrier))
                for j in range(i + 1, len(self.carrier))
                if self.rel(i, j)
            ],
        }


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def d1_holds(s: Structure) -> bool:
    """b <= a + c0 and b <= a + c1 for a non-contact pair imply b <= a."""
    for c0, c1 in s.noncontact():
        for a in s.carrier:
            for b in s.carrier:
                if (
                    subset(b, a | s.carrier[c0])
                    and subset(b, a | s.carrier[c1])
                    and not subset(b, a)
                ):
                    return False
    return True


def additive_holds(s: Structure) -> bool:
    """a d (b + c) implies a d b or a d c."""
    size = len(s.carrier)
    for a in range(1, size):
        for b in range(1, size):
            for c in range(1, size):
                if s.rel(a, s.join(b, c)) and not s.rel(a, b) and not s.rel(a, c):
                    return False
    return True


def witness_holds(s: Structure, axiom: str, witness: dict) -> bool:
    """A fail witness of ``axiom`` (certificate JSON form) violates it."""
    roles = witness["elements"]
    pairs = [tuple(p) for p in witness["pairs"]]
    if any(s.rel(x, y) for x, y in pairs):
        return False
    if axiom == "add":
        a, b, c = roles["a"], roles["b"], roles["c"]
        return s.rel(a, s.join(b, c)) and not s.rel(a, b) and not s.rel(a, c)
    a, b = roles["a"], roles["b"]
    ca, cb = s.carrier[a], s.carrier[b]
    if axiom in ("d1", "d1plus"):
        return all(subset(cb, ca | m) for m in s.selector_sums(pairs)) and not subset(
            cb, ca
        )
    if axiom in ("d2", "d2all"):
        return s.rel(a, b) and all(
            subset(cb, m) or subset(ca, m) for m in s.selector_sums(pairs)
        )
    if axiom == "d2minus":
        if not pairs:
            return False
        (x1, y1), rest = pairs[0], pairs[1:]
        sums = s.selector_sums(rest)
        return (
            s.rel(a, b)
            and all(subset(cb, s.carrier[x1] | m) for m in sums)
            and all(subset(ca, s.carrier[y1] | m) for m in sums)
        )
    raise ValueError(f"no reference for axiom {axiom!r}")


def representation_holds(s: Structure, images: list[int], mode: str) -> bool:
    """Injective, 0-reflecting, join-preserving; non-contact pairs disjoint;
    in overlap mode also every contact pair overlapping."""
    size = len(s.carrier)
    if len(images) != size or images[0] != 0 or len(set(images)) != size:
        return False
    if not all(images[1:]):
        return False
    for i in range(size):
        for j in range(i + 1, size):
            if images[s.join(i, j)] != images[i] | images[j]:
                return False
            overlap = bool(images[i] & images[j])
            if i and not s.rel(i, j) and overlap:
                return False
            if mode == "overlap" and i and s.rel(i, j) and not overlap:
                return False
    return True
