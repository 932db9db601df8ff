"""Deciders for representability in powerset algebras.

Any join-preserving, zero-reflecting map into a powerset induces, per ground
point, the set of elements whose image contains that point.  Such a set is
upward closed, join-prime and 0-free, and in a finite join-semilattice its
complement is a down-set closed under joins, hence a principal ideal.  So
candidate ground points can be identified with carrier elements ``m`` and the
canonical map sends ``a`` to the set of admissible ``m`` with ``a`` not below
``m``.  It sends joins to unions by construction, so the live conditions are
injectivity with 0 alone sent to the empty set and, for overlap, meeting
images on contact pairs, read from the structure's cached images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .axioms import require_weak_contact
from .core import ContactStructure


@dataclass(frozen=True)
class ColumnSet:
    """Carrier indices usable as ground points (``admissible_columns``); bit j
    of ``images[x]`` is set iff element x is not below ``columns[j]``."""

    columns: tuple[int, ...]
    images: tuple[int, ...]


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


def admissible_columns(cs: ContactStructure) -> ColumnSet:
    """All m, excluding the maximum, below which at least one component of
    every non-contact pair fits, with the canonical image of every element."""
    return ColumnSet(*cs.canonical_images)


def _decide(cs: ContactStructure, mode: str) -> Representation | Refusal:
    require_weak_contact(cs)
    column_set = admissible_columns(cs)
    collision = cs.image_collision
    if collision is not None:
        return Refusal(mode, *collision)
    if mode == "overlap":
        rows, disjoint = cs.contact.rows, cs.disjoint_images
        for a in range(1, cs.size):
            hit = (rows[a] & disjoint[a]) >> (a + 1)
            if hit:
                b = a + (hit & -hit).bit_length()
                return Refusal(mode, "uncovered-contact-pair", (a, b))
    return Representation(mode, column_set.columns, column_set.images)


def decide_weak_representable(cs: ContactStructure) -> Representation | Refusal:
    """Embedding with non-contact pairs mapped to disjoint sets."""
    return _decide(cs, "weak")


def decide_overlap_representable(cs: ContactStructure) -> Representation | Refusal:
    """Embedding making contact exactly the overlap of images."""
    return _decide(cs, "overlap")
