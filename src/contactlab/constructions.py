"""Explicit witness structures built inside free Boolean algebras.

The centrepiece is ``build_separator(n)``: the join closure of the 2n+2
elements consisting of the n generators, their complements, and the two
parity products, with exactly the generator/complement pairs not in contact.
The resulting structure passes the level-(n-1) separation schema but fails it
at level n, which is what makes the family useful as a certificate corpus.

Parity products come in two normal forms.  The defining form is a product of
selector sums (``parity_products``); expanding by De Morgan gives a sum of
full literal products with the parities swapped when n is even.  A display of
the second form as a product is a known slip in circulation.  The tests check
both forms equal, and the two products complements of each other, up to
n = 10; ``build_separator`` relies on neither.
"""

from __future__ import annotations

from typing import NamedTuple

from .axioms import Verdict, Witness, check_weak_contact
from .core import (
    Bits,
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    FreeBooleanAlgebra,
    contact_all_except,
    is_subset,
    iter_bits,
    join_closure,
    overlap_contact,
)


class ConstructionError(RuntimeError):
    """A structural fact asserted by a construction failed to verify."""


class OrderPreservationError(ValueError):
    """A map between ordered carriers is not order preserving."""


class ZeroReflectionError(ValueError):
    """A map sends a nonzero element to zero, or zero to nonzero."""


def parity_products(n: int) -> tuple[Bits, Bits]:
    """(even, odd) parity products in the free algebra on n generators.

    The even product multiplies the selector sums of even-parity selectors,
    the odd product those of odd parity.  They are complements of each other.
    """
    ba = FreeBooleanAlgebra.build(n)
    even = odd = ba.full
    for f in range(1 << n):
        s = 0
        for i in range(1, n + 1):
            s |= ba.literal(i, (f >> (n - i)) & 1)
        if f.bit_count() & 1:
            odd &= s
        else:
            even &= s
    return even, odd


class SeparatorStructure(NamedTuple):
    """Level-n separator: contact semilattice failing d2 exactly at level n.

    ``literal_pairs[i]`` holds the carrier indices of generator i+1 and its
    complement (the only non-contact pairs); ``even_product`` / ``odd_product``
    index the two parity products.  The carrier lives on the ambient 2^n-point
    ground set, so inclusion into the ambient powerset is literal.
    """

    n: int
    algebra: FreeBooleanAlgebra
    structure: ContactStructure
    literal_pairs: tuple[tuple[int, int], ...]
    even_product: int
    odd_product: int

    @property
    def roles(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i, (g, cg) in enumerate(self.literal_pairs, start=1):
            out[f"gen_{i}"] = g
            out[f"cogen_{i}"] = cg
        out["even_product"] = self.even_product
        out["odd_product"] = self.odd_product
        return out

    def expected_d2_witness(self) -> Witness:
        """The designated violating instance at level n: the two parity
        products against all n literal pairs."""
        return Witness(
            "d2",
            (("a", self.odd_product), ("b", self.even_product)),
            self.literal_pairs,
        )


def build_separator(n: int) -> SeparatorStructure:
    """Build and eagerly validate the level-n separator (n >= 2).

    Every structural fact the certificates rely on is re-verified here;
    any failure is a hard ConstructionError.
    """
    if n < 2:
        raise ValueError(f"separator needs n >= 2, got {n}")
    ba = FreeBooleanAlgebra.build(n)
    even, odd = parity_products(n)
    literals = [(ba.literal(i, 0), ba.literal(i, 1)) for i in range(1, n + 1)]
    gen_masks = [m for pair in literals for m in pair] + [even, odd]

    for i, x in enumerate(gen_masks):
        for y in gen_masks[i + 1 :]:
            if is_subset(x, y) or is_subset(y, x):
                raise ConstructionError(
                    f"designated elements {x:#x} and {y:#x} are comparable"
                )

    lattice = join_closure(ba.width, gen_masks)
    idx = lattice.index
    literal_pairs = tuple((idx[g], idx[cg]) for g, cg in literals)
    contact = contact_all_except(lattice.size, literal_pairs)
    cs = ContactStructure(lattice, contact)

    designated = {idx[m] for m in gen_masks}
    if set(lattice.atoms()) != designated:
        raise ConstructionError("designated elements are not exactly the atoms")
    if contact.noncontact_pairs() != sorted(
        tuple(sorted(p)) for p in literal_pairs
    ):
        raise ConstructionError("non-contact pairs differ from the literal pairs")
    # Every nonzero element dominates a designated element with no check of
    # its own: each lies above an atom of the finite lattice, and the atoms
    # are exactly the designated elements.
    verdict = check_weak_contact(cs)
    if not verdict.passed:
        raise ConstructionError("separator contact is not a weak contact")

    return SeparatorStructure(n, ba, cs, literal_pairs, idx[even], idx[odd])


def powerset_lattice(width: int) -> FiniteJoinSemilattice:
    """Full powerset of a ground set as a join-semilattice (2^width elements)."""
    if width > 20:
        raise ValueError(f"powerset carrier 2^{width} is unreasonably large")
    return FiniteJoinSemilattice.from_closed_carrier(width, tuple(range(1 << width)))


class ContactMap(NamedTuple):
    """Order-preserving, zero-reflecting assignment between carriers."""

    source: ContactStructure
    target: FiniteJoinSemilattice
    kappa: tuple[int, ...]

    def validate(self) -> None:
        source, target, kappa = self  # locals: the loops read them per pair
        src = source.lattice
        if len(kappa) != src.size:
            raise ValueError("map must assign every source element")
        for i in range(src.size):
            img = kappa[i]
            if (img == 0) != (i == 0):
                raise ZeroReflectionError(
                    f"element {i} maps to target {img}; only 0 may map to 0"
                )
        for x in range(src.size):
            mask = src.leq_masks[x]
            for y in iter_bits(mask):
                if not target.leq(kappa[x], kappa[y]):
                    raise OrderPreservationError(
                        f"{x} <= {y} in the source but images are not ordered"
                    )


def min_contact_extension(cmap: ContactMap) -> ContactRelation:
    """Least weak contact on the target making the map a contact homomorphism.

    A target pair is related iff it has a common nonzero lower bound, or it
    dominates the images of some related source pair.
    """
    cmap.validate()
    source, target, kappa = cmap
    rows = list(overlap_contact(target).rows)
    up = target.leq_masks
    src_rel = source.contact
    for s1 in range(1, source.size):
        for s2 in iter_bits(src_rel.rows[s1]):
            u1 = up[kappa[s1]]
            u2 = up[kappa[s2]]
            for i in iter_bits(u1):
                rows[i] |= u2
    return ContactRelation(target.size, tuple(rows))


def check_embedding_criterion(cmap: ContactMap) -> Verdict:
    """Pass iff the map is an order embedding and every non-contact source
    pair has images meeting at zero in the target.

    A pass guarantees the minimal extension turns the map into a contact
    embedding (preserving and reflecting contact)."""
    cmap.validate()
    source, target, kappa = cmap
    src = source.lattice
    examined = 0
    for x in range(src.size):
        for y in range(src.size):
            examined += 1
            if target.leq(kappa[x], kappa[y]) and not src.leq(x, y):
                witness = Witness("order-embedding", (("a", x), ("b", y)))
                return Verdict("embedding-criterion", {}, False, witness, examined)
    for i, j in source.contact.noncontact_pairs():
        examined += 1
        if target.meet(kappa[i], kappa[j]) != 0:
            witness = Witness("meet", (("a", i), ("b", j)), ((i, j),))
            return Verdict("embedding-criterion", {}, False, witness, examined)
    return Verdict("embedding-criterion", {}, True, None, examined)


# ---------------------------------------------------------------------------
# ambient-extension facts, evaluated without materializing the powerset


def ambient_related(sep: SeparatorStructure, b1: Bits, b2: Bits) -> bool:
    """Minimal-extension contact on the ambient powerset, evaluated lazily.

    On a full powerset a common nonzero lower bound is a nonempty
    intersection; the second clause asks whether a related source pair sits
    below the two sides, whose source elements are two ``subsets_of`` masks
    (O(irreducibles) big-int operations each).
    """
    if b1 == 0 or b2 == 0:
        return False
    if b1 & b2:
        return True
    lattice = sep.structure.lattice
    rows = sep.structure.contact.rows
    reach = 0
    for i in iter_bits(lattice.subsets_of(b1) & ~1):
        reach |= rows[i]
    return bool(reach & lattice.subsets_of(b2) & ~1)


def ambient_extension_facts(sep: SeparatorStructure) -> dict[str, bool]:
    """Contact-embedding and non-additivity facts about the ambient extension.

    ``preserves``/``reflects``: the inclusion is a contact embedding.
    ``nonadditive``: the odd parity product contacts the even one, which
    splits into ambient atoms none of which contacts the odd product.

    Overlapping images are related in the ambient extension, so each row
    costs one ``meeting`` fold over the union-irreducibles (O(size *
    irreducibles) big-int operations in all), and ``ambient_related`` runs
    only on the related pairs that are disjoint, the non-contact pairs and
    three splitting facts.
    """
    lattice = sep.structure.lattice
    rel = sep.structure.contact
    carrier = lattice.carrier
    preserves = all(
        ambient_related(sep, carrier[i], carrier[j])
        for i in range(1, sep.structure.size)
        for j in iter_bits(rel.rows[i] & ~lattice.meeting(carrier[i]))
    )
    reflects = all(
        not ambient_related(sep, carrier[i], carrier[j])
        for i, j in rel.noncontact_pairs()
    )
    even_bits = carrier[sep.even_product]
    odd_bits = carrier[sep.odd_product]
    first_atom = even_bits & -even_bits
    rest = even_bits ^ first_atom
    nonadditive = (
        ambient_related(sep, odd_bits, even_bits)
        and not ambient_related(sep, odd_bits, first_atom)
        and not ambient_related(sep, odd_bits, rest)
    )
    return {"preserves": preserves, "reflects": reflects, "nonadditive": nonadditive}
