"""The record types: value semantics of the tuples and the plain classes,
and an import of the CLI that leaves ``dataclasses`` unloaded."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from contactlab.axioms import Verdict, Witness, check_d2, decide_d2_all
from contactlab.core import (
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    contact_all_except,
    overlap_contact,
)
from contactlab.representation import Representation, decide_overlap_representable

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # ``dataclasses`` pulls in inspect, ast, dis and tokenize, and each
    # dataclass execs its generated methods: about half the CLI's start-up.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import contactlab.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "[]\n"


def relations():
    return [
        ContactRelation(4, (0, 10, 12, 14)),
        ContactRelation(4, (0, 10, 12, 14)),
        ContactRelation(4, (0, 14, 12, 14)),
        ContactRelation(3, (0, 2, 4)),
        ContactRelation(3, (0, 2, 4)),
    ]


def test_relations_are_equal_exactly_when_their_fields_are():
    for a in relations():
        for b in relations():
            same = (a.size, a.rows) == (b.size, b.rows)
            assert (a == b) is same
            assert (a != b) is not same
            if same:
                assert hash(a) == hash(b)
        assert a != (a.size, a.rows)


def test_structures_are_equal_exactly_when_lattice_and_contact_are(sep3):
    lattice = sep3.structure.lattice
    warm = ContactStructure(lattice, sep3.structure.contact)
    assert check_d2(warm, 2).passed
    assert not decide_d2_all(warm).passed
    decide_overlap_representable(warm)
    assert warm.d2_holds_to == 2
    assert {"canonical_images", "disjoint_images"} <= set(vars(warm))
    fresh = ContactStructure(lattice, ContactRelation(lattice.size, warm.contact.rows))
    assert fresh.d2_holds_to == 0
    assert warm == fresh and hash(warm) == hash(fresh)
    other = ContactStructure(lattice, overlap_contact(lattice))
    assert warm != other
    same_rows = FiniteJoinSemilattice(lattice.width + 1, lattice.carrier)
    assert warm != ContactStructure(same_rows, warm.contact)


def test_pickled_structures_drop_their_caches(sep3):
    cs = ContactStructure(sep3.structure.lattice, sep3.structure.contact)
    decide_d2_all(cs)
    decide_overlap_representable(cs)
    copy = pickle.loads(pickle.dumps(cs))
    assert copy == cs and hash(copy) == hash(cs)
    assert copy.d2_holds_to == 0
    assert set(vars(copy)) <= {"lattice", "contact", "d2_holds_to"}
    assert pickle.loads(pickle.dumps(cs.contact)) == cs.contact


def test_records_keep_keywords_defaults_and_repr():
    witness = Witness(kind="d2", elements=(("a", 1),))
    assert witness.pairs == ()
    assert repr(witness) == "Witness(kind='d2', elements=(('a', 1),), pairs=())"
    verdict = Verdict(axiom="d1", params={}, passed=True, witness=None)
    assert (verdict.examined, verdict.elapsed) == (0, 0.0)
    assert repr(verdict) == (
        "Verdict(axiom='d1', params={}, passed=True, witness=None, examined=0, elapsed=0.0)"
    )
    rep = Representation(mode="weak", columns=(1, 2), images=(0, 1, 2, 3))
    assert repr(rep) == "Representation(mode='weak', columns=(1, 2), images=(0, 1, 2, 3))"
    assert rep.ground_size == 2
    lattice = FiniteJoinSemilattice(2, (0, 1, 2, 3))
    assert repr(ContactStructure(lattice, overlap_contact(lattice))) == (
        "ContactStructure(lattice=FiniteJoinSemilattice(width=2, size=4), "
        "contact=ContactRelation(size=4, rows=(0, 10, 12, 14)))"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: ContactRelation(3, (0, 2)),
        lambda: ContactRelation(3, (0, 2, 8)),
        lambda: ContactStructure(
            FiniteJoinSemilattice(2, (0, 1, 2, 3)), contact_all_except(3, [])
        ),
    ],
    ids=["row-count", "stray-bits", "size-mismatch"],
)
def test_malformed_relations_and_structures_are_refused(build):
    with pytest.raises(ValueError):
        build()
