import pytest

from contactlab.core import (
    ContactStructure,
    FiniteJoinSemilattice,
    join_closure,
    overlap_contact,
)
from contactlab.constructions import build_separator


def powerset_structure(width: int) -> ContactStructure:
    lattice = FiniteJoinSemilattice(width, tuple(range(1 << width)))
    return ContactStructure(lattice, overlap_contact(lattice))


def m3_structure() -> ContactStructure:
    """Three pairwise-incomparable coatoms joining pairwise to the top,
    with overlap contact: the classic d1-failing structure."""
    lattice = join_closure(3, [0b011, 0b110, 0b101])
    assert lattice.size == 5
    return ContactStructure(lattice, overlap_contact(lattice))


@pytest.fixture(scope="session")
def sep2():
    return build_separator(2)


@pytest.fixture(scope="session")
def sep3():
    return build_separator(3)


@pytest.fixture(scope="session")
def ps2():
    return powerset_structure(2)


@pytest.fixture(scope="session")
def ps3():
    return powerset_structure(3)


@pytest.fixture(scope="session")
def m3():
    return m3_structure()


@pytest.fixture(scope="session")
def sep5():
    return build_separator(5)
