"""Deciders for representability in powerset algebras.

Any join-preserving, zero-reflecting map into a powerset induces, per ground
point, the set of elements whose image contains that point.  Such a set is
upward closed, join-prime and 0-free, and in a finite join-semilattice its
complement is a down-set closed under joins, hence a principal ideal.  So
candidate ground points can be identified with carrier elements ``m`` and the
canonical map sends ``a`` to the set of admissible ``m`` with ``a`` not below
``m``.  This turns representability into a quadratic scan; the exponential
search survives only inside ``brute_force_representation``, which rediscovers
valid ground points by definition and exists to cross-check the canonical
decider.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any

from .axioms import admissible_column_masks, require_weak_contact
from .core import ContactStructure, full_mask, iter_bits


@dataclass(frozen=True)
class ColumnSet:
    """Carrier indices usable as ground points: the elements m whose
    complement-filter contains no non-contact pair.  Bit j of ``above[x]``
    is set iff element x is below ``columns[j]``."""

    columns: tuple[int, ...]
    above: tuple[int, ...]


@dataclass(frozen=True)
class Representation:
    """Embedding into the powerset of the chosen columns.

    ``images[x]`` is a bit mask over ``columns``; bit j set means element x
    is not below column j, i.e. ground point j lies in the image of x.
    """

    mode: str
    columns: tuple[int, ...]
    images: tuple[int, ...]

    @property
    def ground_size(self) -> int:
        return len(self.columns)

    def validate(self, cs: ContactStructure) -> None:
        """Re-check every invariant directly; soundness is unconditional."""
        lattice, rel = cs.lattice, cs.contact
        if len(self.images) != lattice.size:
            raise AssertionError("one image per carrier element required")
        if self.images[0] != 0:
            raise AssertionError("zero must map to the empty set")
        seen: dict[int, int] = {}
        for x, img in enumerate(self.images):
            if x and not img:
                raise AssertionError(f"nonzero element {x} has empty image")
            if img in seen:
                raise AssertionError(f"elements {seen[img]} and {x} share an image")
            seen[img] = x
        for x in range(lattice.size):
            for y in range(x, lattice.size):
                j = lattice.join(x, y)
                if self.images[j] != self.images[x] | self.images[y]:
                    raise AssertionError(f"join of {x}, {y} is not preserved")
        for i, j in rel.noncontact_pairs():
            if self.images[i] & self.images[j]:
                raise AssertionError(f"non-contact pair ({i}, {j}) overlaps")
        if self.mode == "overlap":
            for i, j in rel.related_pairs():
                if not self.images[i] & self.images[j]:
                    raise AssertionError(f"contact pair ({i}, {j}) is disjoint")

    def to_json(self) -> dict[str, Any]:
        digits = max(1, (self.ground_size + 3) // 4)
        return {
            "mode": self.mode,
            "ground_size": self.ground_size,
            "columns": list(self.columns),
            "images": [f"{img:0{digits}x}" for img in self.images],
        }


@dataclass(frozen=True)
class Refusal:
    """No representation exists; names the finite obstruction found."""

    mode: str
    reason: str  # "zero-image" | "indistinguishable-pair" | "uncovered-contact-pair"
    elements: tuple[int, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "reason": self.reason,
            "elements": list(self.elements),
        }


@dataclass(frozen=True)
class Exhausted:
    """Brute-force search hit its resource cap before deciding."""

    nodes: int


def admissible_columns(cs: ContactStructure) -> ColumnSet:
    """All m, excluding the maximum, below which at least one component of
    every non-contact pair fits."""
    columns, above = admissible_column_masks(cs)
    return ColumnSet(columns, above)


def _canonical_images(column_set: ColumnSet) -> tuple[int, ...]:
    """Each element maps to the columns it is not below."""
    everything = full_mask(len(column_set.columns))
    return tuple(everything ^ mask for mask in column_set.above)


def _decide(cs: ContactStructure, mode: str) -> Representation | Refusal:
    require_weak_contact(cs)
    column_set = admissible_columns(cs)
    cols = column_set.columns
    images = _canonical_images(column_set)
    # Join preservation and order preservation are automatic for filter
    # columns; zero-reflection and injectivity are the live conditions.
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
    return Representation(mode, cols, images)


def decide_weak_representable(cs: ContactStructure) -> Representation | Refusal:
    """Embedding with non-contact pairs mapped to disjoint sets."""
    return _decide(cs, "weak")


def decide_overlap_representable(cs: ContactStructure) -> Representation | Refusal:
    """Embedding making contact exactly the overlap of images."""
    return _decide(cs, "overlap")


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
