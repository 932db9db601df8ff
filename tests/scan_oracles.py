"""Ungated pair-subset scans, kept as oracles for the column-gated checkers.

Each scan enumerates subsets of the non-contact pairs exactly as the library
does, but without the polynomial column test in front, so it is exponential
in the number of pairs.  The library must return the same verdicts, params
and witnesses; only the ``examined`` counts differ.
"""

from __future__ import annotations

import time
from itertools import combinations

from contactlab.axioms import Verdict, Witness, _selector_sums
from contactlab.core import ContactStructure, full_mask, iter_bits


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
