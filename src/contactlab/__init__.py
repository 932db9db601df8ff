"""contactlab: a finite-model workbench for weak contact join-semilattices.

Builds and checks finite join-semilattices carrying weak contact relations:
decides the axiom schemas (d1, d1+, d2 at every level, d2-minus, additivity),
decides representability in powerset algebras with weak or overlap contact,
enumerates all small structures up to isomorphism, and emits self-contained,
re-verifiable certificates for everything it claims.
"""

__version__ = "0.1.0"

from .core import (
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    FreeBooleanAlgebra,
    join_closure,
    overlap_contact,
)
from .axioms import (
    AxiomProfile,
    Verdict,
    Witness,
    check_additive,
    check_d1,
    check_d1_plus,
    check_d2,
    check_d2_minus,
    check_weak_contact,
    decide_d2_all,
    profile_of,
    revalidate_witness,
)
from .constructions import (
    ContactMap,
    SeparatorStructure,
    build_separator,
    check_embedding_criterion,
    min_contact_extension,
    parity_products,
)
from .representation import (
    Refusal,
    Representation,
    admissible_columns,
    decide_overlap_representable,
    decide_weak_representable,
)
from .enumeration import (
    CorpusRecord,
    classify_corpus,
    enumerate_contacts,
    enumerate_semilattices,
    iso_class_key,
)
