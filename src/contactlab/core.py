"""Finite algebraic substrate: subsets as bit vectors, join-semilattices, contacts.

Every element of every structure in this package is a concrete subset of a
finite ground set, encoded as a Python int whose bit ``k`` marks ground point
``k``.  Ints are arbitrary precision, so a single representation covers both
machine-word and wider ground sets.  Widths are owned by the containing
structure; raw masks never travel between structures of different width.

All structures are immutable after construction and all operations are pure.
The value records are ``typing.NamedTuple``s, which enforce it; the plain
classes (``FiniteJoinSemilattice``, ``ContactRelation``, ``ContactStructure``)
keep it by convention, since their caches need an instance dict.  What a
structure caches (derived masks, the non-contact pairs, the first
weak-contact violation, the deepest level the d2 search found free of
violations) only records facts about it.  So values can be shared freely
across threads or processes.

Whether a relation is a weak contact is decided once, by
``ContactStructure.weak_contact_violation``, which also names the first
violation, in time linear in the smaller side of the relation: an invalid
relation costs what a valid one does.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterator, NamedTuple, Sequence

Bits = int  # subset of a ground set; bit k <-> ground point k

# Widest ground set a free algebra or a structure file may have.  Order
# masks cost O(size * irreducibles) operations on width-bit and size-bit
# ints, so the cap also bounds what a file can ask for.
WIDTH_CAP = 1024


class CapExceededError(ValueError):
    """A requested ground-set width exceeds the cap."""


def full_mask(width: int) -> Bits:
    return (1 << width) - 1


def iter_bits(mask: Bits) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_subset(x: Bits, y: Bits) -> bool:
    return x & ~y == 0


def check_width(mask: Bits, width: int) -> None:
    if mask < 0 or mask >> width:
        raise ValueError(f"bit vector {mask:#x} exceeds width {width}")


class FreeBooleanAlgebra(NamedTuple):
    """Boolean algebra freely generated by ``n`` elements, as a powerset.

    The ground set is the 2**n valuations of the generators; valuation ``k``
    assigns generator ``i`` (1-based) the bit ``n - i`` of ``k``.  Generator
    ``i`` is the set of valuations where its coordinate is 1, its cogenerator
    the bitwise complement.  Freeness amounts to every full product of
    literals, one per coordinate, being a distinct singleton.
    """

    n: int
    width: int
    generators: tuple[Bits, ...]
    cogenerators: tuple[Bits, ...]

    @classmethod
    def build(cls, n: int) -> "FreeBooleanAlgebra":
        if n < 1:
            raise ValueError(f"generator count must be positive, got {n}")
        if 2**n > WIDTH_CAP:
            raise CapExceededError(
                f"free algebra on {n} generators needs ground width {2**n}, "
                f"cap is {WIDTH_CAP}"
            )
        width = 2**n
        gens = []
        for i in range(1, n + 1):
            mask = 0
            for k in range(width):
                if (k >> (n - i)) & 1:
                    mask |= 1 << k
            gens.append(mask)
        full = full_mask(width)
        ba = cls(n, width, tuple(gens), tuple(full ^ g for g in gens))
        ba._check_free()
        return ba

    @property
    def full(self) -> Bits:
        return full_mask(self.width)

    def complement(self, x: Bits) -> Bits:
        check_width(x, self.width)
        return self.full ^ x

    def literal(self, i: int, j: int) -> Bits:
        """Generator i (1-based) for j == 0, its complement for j == 1."""
        if not 1 <= i <= self.n or j not in (0, 1):
            raise IndexError(f"no literal ({i}, {j}) in a {self.n}-generator algebra")
        return self.generators[i - 1] if j == 0 else self.cogenerators[i - 1]

    def _check_free(self) -> None:
        seen = 0
        for g in range(self.width):
            product = self.full
            for i in range(1, self.n + 1):
                product &= self.literal(i, (g >> (self.n - i)) & 1)
            if product == 0 or product & seen:
                raise AssertionError("full literal products must partition the ground set")
            seen |= product
        if seen != self.full:
            raise AssertionError("full literal products must cover the ground set")


class FiniteJoinSemilattice:
    """Union-closed family of subsets; join is union, 0 is the empty set.

    The carrier is sorted by bit pattern, which makes indices, certificates
    and exports deterministic.  Index 0 is always the empty set and, because
    subset implies numeric <=, the last index is always the maximum element.
    """

    def __init__(self, width: int, carrier: tuple[Bits, ...]):
        if not carrier or carrier[0] != 0:
            raise ValueError("carrier must contain the empty set first")
        if list(carrier) != sorted(set(carrier)):
            raise ValueError("carrier must be strictly sorted by bit pattern")
        check_width(carrier[-1], width)
        self.width = width
        self.carrier = tuple(carrier)
        self.index = {bits: i for i, bits in enumerate(self.carrier)}
        # A sorted family holding 0 is union-closed once a | g is in it for
        # every a and every union-irreducible g: by induction on g, a
        # reducible g is the union of smaller elements b1, ..., bm, each
        # joining into the family, so a | g = (...(a | b1) | ...) | bm does
        # too.  A level-n separator has 2n + 2 irreducibles.
        if all(a | g in self.index for _, g, _ in self.basis for a in self.carrier):
            return
        # Not closed: the pair scan names its first gap.
        for a in self.carrier:
            for b in self.carrier:
                if a | b not in self.index:
                    raise ValueError(
                        f"carrier not union-closed: {a:#x} | {b:#x} missing"
                    )

    @classmethod
    def from_closed_carrier(
        cls, width: int, carrier: tuple[Bits, ...]
    ) -> "FiniteJoinSemilattice":
        """Carrier already known sorted and union-closed; skips the re-check
        (the ``basis`` pass, O(size * irreducibles) big-int operations, plus
        size dict lookups per irreducible).  For construction paths that
        close the carrier themselves."""
        self = object.__new__(cls)
        self.width = width
        self.carrier = carrier
        self.index = {bits: i for i, bits in enumerate(carrier)}
        return self

    @property
    def size(self) -> int:
        return len(self.carrier)

    @property
    def top(self) -> int:
        return len(self.carrier) - 1

    def __repr__(self) -> str:
        return f"FiniteJoinSemilattice(width={self.width}, size={self.size})"

    def __reduce__(self) -> tuple[Any, ...]:
        # By the defining fields: the order masks and other caches are
        # rebuilt where they are read, not shipped between processes.
        return FiniteJoinSemilattice.from_closed_carrier, (self.width, self.carrier)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteJoinSemilattice)
            and self.width == other.width
            and self.carrier == other.carrier
        )

    def __hash__(self) -> int:
        return hash((self.width, self.carrier))

    def join(self, x: int, y: int) -> int:
        return self.index[self.carrier[x] | self.carrier[y]]

    def leq(self, x: int, y: int) -> bool:
        return self.carrier[x] & ~self.carrier[y] == 0

    def meet(self, x: int, y: int) -> int:
        """Greatest common lower bound within the carrier: the highest index
        below both.  It contains every other common lower bound, so it has
        the largest bit pattern, and the carrier is sorted by bit pattern."""
        return (self.below_masks[x] & self.below_masks[y]).bit_length() - 1

    def atoms(self) -> tuple[int, ...]:
        """Indices of minimal nonzero elements."""
        below = self.below_masks
        return tuple(i for i in range(1, self.size) if below[i] == 1 | (1 << i))

    @cached_property
    def basis(self) -> tuple[tuple[int, Bits, int], ...]:
        """``(g, carrier[g], up)`` per union-irreducible g, ascending; bit i
        of ``up`` is set iff carrier[g] <= carrier[i].

        One walk of the sorted carrier: an element is irreducible iff the
        earlier irreducibles inside it do not cover it, and the same loop
        marks it in their up-sets.  Each element of a finite family is the
        union of the irreducibles inside it, all earlier, so this holds on
        any sorted family, closed or not.  O(size * irreducibles) big-int
        operations, whatever the width; every order mask folds these up-sets.
        """
        indices, gens, ups = [], [], []
        for i, bits in enumerate(self.carrier):
            bit, covered = 1 << i, 0
            for k, g in enumerate(gens):
                if not g & ~bits:
                    covered |= g
                    ups[k] |= bit
            if covered != bits:
                indices.append(i)
                gens.append(bits)
                ups.append(bit)
        return tuple(zip(indices, gens, ups))

    def meeting(self, bits: Bits) -> int:
        """Indices of the carrier elements sharing a point with ``bits``:
        the up-sets of the irreducibles meeting it."""
        mask = 0
        for _, g, up in self.basis:
            if g & bits:
                mask |= up
        return mask

    def subsets_of(self, bits: Bits) -> int:
        """Indices of the carrier elements inside ``bits``: those meeting no
        point outside it."""
        return full_mask(self.size) ^ self.meeting(full_mask(self.width) & ~bits)

    @cached_property
    def leq_masks(self) -> tuple[int, ...]:
        """leq_masks[i] has bit j iff carrier[i] <= carrier[j]: the AND of
        the up-sets of the irreducibles inside carrier[i]."""
        everything = full_mask(self.size)
        out = []
        for bits in self.carrier:
            mask = everything
            for _, g, up in self.basis:
                if not g & ~bits:
                    mask &= up
            out.append(mask)
        return tuple(out)

    @cached_property
    def below_masks(self) -> tuple[int, ...]:
        """below_masks[j] has bit i iff carrier[i] <= carrier[j]: everything
        but the elements meeting a point outside carrier[j]."""
        everything, full = full_mask(self.size), full_mask(self.width)
        return tuple(everything ^ self.meeting(full ^ bits) for bits in self.carrier)

    def images_over(self, columns: Sequence[int]) -> tuple[int, ...]:
        """Per element x, its image over ``columns``: bit j is set iff x is
        not below columns[j].  Columns may repeat; the image of a join is the
        union of the images."""
        below = self.below_masks
        images = [full_mask(len(columns))] * self.size
        for j, m in enumerate(columns):
            bit = 1 << j
            rest = below[m]
            while rest:
                low = rest & -rest
                images[low.bit_length() - 1] ^= bit
                rest ^= low
        return tuple(images)

    def meets(self, columns: Sequence[int], masks: Sequence[int]) -> tuple[int, ...]:
        """Per mask (bit j for columns[j]), the elements below every column in
        it (everything for the empty mask), memoized per distinct mask.  Over
        the images of ``columns``, this is per x the elements whose image is
        disjoint from x's.

        Two forms give the same set.  The AND of the down-sets of the mask's
        columns has one term per bit of the mask.  The fold over the
        union-irreducibles has one per irreducible: an element is below a
        column iff every irreducible inside it is, so the meet is everything
        but the up-sets of the irreducibles whose image over ``columns``
        meets the mask.  Each distinct mask takes the form with fewer terms;
        the irreducibles' images are read off the down-sets once per call,
        when a mask first takes the fold."""
        below, basis = self.below_masks, self.basis
        everything = full_mask(self.size)
        folded: list[tuple[int, int]] | None = None
        memo: dict[int, int] = {}
        out = []
        for mask in masks:
            meet = memo.get(mask)
            if meet is None:
                if mask.bit_count() <= len(basis):
                    meet, rest = everything, mask
                    while rest:
                        low = rest & -rest
                        meet &= below[columns[low.bit_length() - 1]]
                        rest ^= low
                else:
                    if folded is None:
                        folded = []
                        for g, _, up in basis:
                            image = 0
                            for j, m in enumerate(columns):
                                if not (below[m] >> g) & 1:
                                    image |= 1 << j
                            folded.append((image, up))
                    reach = 0
                    for image, up in folded:
                        if image & mask:
                            reach |= up
                    meet = everything ^ reach
                memo[mask] = meet
            out.append(meet)
        return tuple(out)


def join_closure(width: int, generators: list[Bits] | tuple[Bits, ...]) -> FiniteJoinSemilattice:
    """Smallest union-closed family containing the generators and the empty set."""
    for g in generators:
        check_width(g, width)
    seen = {0}
    frontier = [0]
    for g in generators:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    # Worklist closure: every new element is re-joined with every generator.
    while frontier:
        u = frontier.pop()
        for g in generators:
            v = u | g
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return FiniteJoinSemilattice.from_closed_carrier(width, tuple(sorted(seen)))


class ContactRelation:
    """Symmetric relation on carrier indices, stored as per-row index masks.

    Bit ``j`` of ``rows[i]`` means index ``i`` is related to index ``j``;
    bits at or beyond ``size`` are refused.  Validity (symmetry, reflexivity
    on nonzero, zero-freeness, monotonicity) is not assumed here:
    ``ContactStructure.weak_contact_violation`` decides it once per
    structure and names the first violation, which
    ``axioms.check_weak_contact`` reports as a witness and
    ``axioms.require_weak_contact`` as an input error.
    """

    def __init__(self, size: int, rows: tuple[int, ...]):
        if len(rows) != size:
            raise ValueError(f"expected {size} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if row >> size:
                raise ValueError(f"row {i} has bits beyond the {size} indices")
        self.size = size
        self.rows = rows

    def __repr__(self) -> str:
        return f"ContactRelation(size={self.size!r}, rows={self.rows!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        return ContactRelation, (self.size, self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ContactRelation)
            and self.size == other.size
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.size, self.rows))

    def related(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def related_pairs(self) -> list[tuple[int, int]]:
        """Related unordered pairs (i, j) with i < j, ascending."""
        out = []
        for i in range(self.size):
            for j in iter_bits(self.rows[i] >> (i + 1)):
                out.append((i, i + 1 + j))
        return out

    def noncontact_pairs(self) -> list[tuple[int, int]]:
        """Unrelated unordered pairs of distinct nonzero indices, ascending."""
        return list(self._noncontact)

    @cached_property
    def _noncontact(self) -> tuple[tuple[int, int], ...]:
        everything = full_mask(self.size)
        return tuple(
            (i, i + 1 + j)
            for i in range(1, self.size)
            for j in iter_bits((everything & ~self.rows[i]) >> (i + 1))
        )


def contact_all_except(
    size: int, noncontact: list[tuple[int, int]] | tuple[tuple[int, int], ...]
) -> ContactRelation:
    """Relation with every nonzero pair related except the given ones."""
    nonzero = full_mask(size) ^ 1
    rows = [0] + [nonzero] * (size - 1)
    for i, j in noncontact:
        if i == 0 or j == 0 or i == j:
            raise ValueError(f"({i}, {j}) is not a removable nonzero pair")
        rows[i] &= ~(1 << j)
        rows[j] &= ~(1 << i)
    return ContactRelation(size, tuple(rows))


def overlap_contact(lattice: FiniteJoinSemilattice) -> ContactRelation:
    """a and b in contact iff some nonzero carrier element lies below both,
    that is, some union-irreducible does: a nonzero element contains one."""
    rows = [0] * lattice.size
    for _, _, up in lattice.basis:
        for i in iter_bits(up):
            rows[i] |= up
    return ContactRelation(lattice.size, tuple(rows))


class ContactStructure:
    """A finite join-semilattice together with a contact relation on it.

    Equality, hash and repr read the lattice and the contact alone, never
    the caches or ``d2_holds_to``."""

    def __init__(self, lattice: FiniteJoinSemilattice, contact: ContactRelation):
        if contact.size != lattice.size:
            raise ValueError(
                f"contact on {contact.size} indices does not match "
                f"carrier of size {lattice.size}"
            )
        self.lattice = lattice
        self.contact = contact
        # Deepest pair-set level known free of d2 violations (``axioms``).
        self.d2_holds_to = 0

    def __repr__(self) -> str:
        return f"ContactStructure(lattice={self.lattice!r}, contact={self.contact!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        # By the defining fields, without the search caches and levels.
        return ContactStructure, (self.lattice, self.contact)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ContactStructure)
            and self.lattice == other.lattice
            and self.contact == other.contact
        )

    def __hash__(self) -> int:
        return hash((self.lattice, self.contact))

    @property
    def size(self) -> int:
        return self.lattice.size

    @cached_property
    def canonical_images(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Admissible columns and, per element, its canonical image.

        The columns are the carrier indices m, top excluded, above at least
        one component of every non-contact pair, ascending.  Bit j of
        ``images[x]`` is set iff x is not below columns[j]."""
        lattice = self.lattice
        leq = lattice.leq_masks
        admissible = full_mask(lattice.size) & ~(1 << lattice.top)
        for x, y in self.contact.noncontact_pairs():
            admissible &= leq[x] | leq[y]
        columns = tuple(iter_bits(admissible))
        return columns, lattice.images_over(columns)

    @cached_property
    def image_collision(self) -> tuple[str, tuple[int, ...]] | None:
        """The least x > 0 with an empty image, ``("zero-image", (x,))``, or
        an earlier y's, ``("indistinguishable-pair", (y, x))``; else None."""
        seen: dict[int, int] = {}
        for x, img in enumerate(self.canonical_images[1]):
            if x and not img:
                return "zero-image", (x,)
            if img in seen:
                return "indistinguishable-pair", (seen[img], x)
            seen[img] = x
        return None

    @cached_property
    def disjoint_images(self) -> tuple[int, ...]:
        """disjoint[a] has bit b iff the images of a and b are disjoint,
        i.e. b is below every column in the image of a."""
        columns, images = self.canonical_images
        return self.lattice.meets(columns, images)

    def first_uncovered_pair(self, disjoint: Sequence[int]) -> tuple[int, int] | None:
        """The first uncovered contact pair, given per element the elements
        of disjoint image: the least a >= 1 in contact with some b >= a in
        ``disjoint[a]``, with the least such b; None if there is none."""
        rows = self.contact.rows
        for a in range(1, self.size):
            hit = (rows[a] & disjoint[a]) >> a
            if hit:
                return a, a + (hit & -hit).bit_length() - 1
        return None

    @cached_property
    def weak_contact_violation(
        self,
    ) -> tuple[str, tuple[tuple[str, int], ...], int] | None:
        """None on a weak contact, else ``(kind, roles, examined)``: the first
        violation a pair-by-pair scan meets (row 0; bit 0 and the diagonal of
        each nonzero row; symmetry over every related entry, then up-closure
        of every row, both row-major) and that scan's count up to it, read
        off row popcounts.  An up-closure witness is two-sided (a d b,
        a <= a1, b <= b1, not a1 d b1) with a1 = a and the least b1.

        O(size + min(|R|, |N|)) row operations on valid and invalid relations
        alike, R the related pairs and N the unrelated nonzero ones: each
        row's asymmetric and not up-closed entries are marked from one side
        of the whole relation, whichever is smaller.  Related side: j in row
        i is asymmetric if i is not in row j, and not up-closed if the up-set
        of j is not in row i.  Unrelated side: for each nonzero j outside row
        i, entry i of row j is asymmetric if present, and the members of row
        i below j are not up-closed.  The side may not be chosen row by row:
        on the chain 0 < 1 < 2 with rows {1, 2} and {2}, row 1 on its related
        side and row 2 on its unrelated side both miss that 1 d 2 holds while
        2 d 1 does not.
        """
        rows = self.contact.rows
        size = self.size
        if rows[0]:
            return "zero", (("a", 0), ("b", next(iter_bits(rows[0])))), 0
        for i in range(1, size):
            if rows[i] & 1:
                return "zero", (("a", i), ("b", 0)), i
            if not (rows[i] >> i) & 1:
                return "reflexivity", (("a", i),), i
        related = sum(map(int.bit_count, rows))
        asymmetric, unclosed = [0] * size, [0] * size
        related_side = 2 * related <= (size - 1) * (size - 1)
        if related_side:
            up = self.lattice.leq_masks
            for i in range(1, size):
                row = rows[i]
                for j in iter_bits(row):
                    if not (rows[j] >> i) & 1:
                        asymmetric[i] |= 1 << j
                    if up[j] & ~row:
                        unclosed[i] |= 1 << j
        else:
            down = self.lattice.below_masks
            nonzero = full_mask(size) ^ 1
            for i in range(1, size):
                row, reach = rows[i], 0
                for j in iter_bits(nonzero & ~row):
                    if (rows[j] >> i) & 1:
                        asymmetric[j] |= 1 << i
                    reach |= down[j]
                if reach:
                    unclosed[i] = reach & row
        if any(asymmetric):
            kind, marks, base = "symmetry", asymmetric, size - 1
        elif any(unclosed):
            kind, marks, base = "extension", unclosed, size - 1 + related
        else:
            return None
        i = next(i for i, hit in enumerate(marks) if hit)
        j = next(iter_bits(marks[i]))
        earlier = sum(map(int.bit_count, rows[:i]))
        examined = base + earlier + (rows[i] & ((2 << j) - 1)).bit_count()
        if kind == "symmetry":
            return kind, (("a", i), ("b", j)), examined
        if related_side:
            b1 = next(iter_bits(up[j] & ~rows[i]))
        else:
            b1 = next(k for k in iter_bits(nonzero & ~rows[i]) if (down[k] >> j) & 1)
        return kind, (("a", i), ("b", j), ("a1", i), ("b1", b1)), examined

    @property
    def is_weak_contact(self) -> bool:
        """Whether the relation is a weak contact (``weak_contact_violation``)."""
        return self.weak_contact_violation is None
