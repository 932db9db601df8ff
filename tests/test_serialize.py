"""Structure JSON round trips, schema validation, DOT determinism."""

import json
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from contactlab import serialize
from contactlab.core import ContactStructure, join_closure
from contactlab.enumeration import enumerate_contacts, enumerate_semilattices
from contactlab.serialize import (
    SchemaError,
    canonical_dumps,
    representation_to_dot,
    structure_from_json,
    structure_sha256,
    structure_to_dot,
    structure_to_json,
)
from contactlab.representation import decide_weak_representable
from scan_oracles import (
    canonical_dumps_reference,
    contact_from_related_pairs,
    contact_rows,
)


def roundtrip(cs, roles=None):
    payload = structure_to_json(cs, roles)
    text = canonical_dumps(payload)
    restored, restored_roles = structure_from_json(json.loads(text))
    return restored, restored_roles, text


def test_roundtrip_separator_bit_exact(sep2):
    cs = sep2.structure
    restored, roles, text = roundtrip(cs, sep2.roles)
    assert restored.lattice.carrier == cs.lattice.carrier
    assert restored.lattice.width == cs.lattice.width
    assert restored.contact.rows == cs.contact.rows
    assert roles == sep2.roles
    # byte-exact round trip and stable content hash
    payload2 = structure_to_json(restored, roles)
    assert canonical_dumps(payload2) == text
    assert structure_sha256(payload2) == structure_sha256(json.loads(text))


def test_roundtrip_trivial_structure():
    lattice = join_closure(0, [])
    cs = ContactStructure(lattice, contact_from_related_pairs(1, []))
    restored, _, text = roundtrip(cs)
    assert restored.lattice.carrier == (0,)
    assert canonical_dumps(structure_to_json(restored)) == text


def test_roundtrip_whole_small_corpus():
    for lattice in enumerate_semilattices(4):
        for rel in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, rel)
            restored, _, _ = roundtrip(cs)
            assert restored.lattice.carrier == cs.lattice.carrier
            assert restored.contact.rows == cs.contact.rows


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), max_size=5))
def test_roundtrip_random_overlap_structures(gens):
    from contactlab.core import overlap_contact

    lattice = join_closure(5, gens)
    cs = ContactStructure(lattice, overlap_contact(lattice))
    restored, _, _ = roundtrip(cs)
    assert restored.lattice.carrier == cs.lattice.carrier
    assert restored.contact.rows == cs.contact.rows


def base_payload(sep2):
    return structure_to_json(sep2.structure, sep2.roles)


MUTATIONS = [
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.update(ground_size="four"), "ground_size"),
    (lambda d: d.update(carrier=[]), "carrier"),
    (lambda d: d.update(carrier=d["carrier"][:1] + ["zz"]), "carrier[1]"),
    (lambda d: d.update(carrier=list(reversed(d["carrier"]))), "carrier"),
    (lambda d: d.update(carrier=d["carrier"][:-1]), "carrier"),
    (lambda d: d.update(zero=1), "zero"),
    (lambda d: d["contact"].insert(0, [0, 2]), "contact[0]"),
    (lambda d: d["contact"].insert(0, [2, 2]), "contact[0]"),
    (lambda d: d["contact"].insert(0, [5, 99]), "contact[0]"),
    (lambda d: d["contact"].append(d["contact"][0]), "contact"),
    (lambda d: d.update(roles={"gen_1": 99}), "roles"),
    (lambda d: d.update(roles="nope"), "roles"),
]


@pytest.mark.parametrize("mutate, field", MUTATIONS)
def test_schema_errors_name_the_field(sep2, mutate, field):
    payload = base_payload(sep2)
    mutate(payload)
    with pytest.raises(SchemaError) as err:
        structure_from_json(payload)
    assert field.split("[")[0] in str(err.value)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(version=True), "version"),
        (lambda d: d.update(ground_size=True), "ground_size"),
        (lambda d: d["contact"][0].__setitem__(0, True), "contact[0]"),
        (lambda d: d["roles"].update(gen_1=True), "roles['gen_1']"),
    ],
    ids=["version", "ground-size", "contact-index", "role-index"],
)
def test_booleans_are_refused_where_ints_are_expected(sep2, mutate, field):
    # JSON true equals 1 in Python and was once read as that int.
    payload = base_payload(sep2)
    assert payload["contact"][0][0] == 1
    mutate(payload)
    with pytest.raises(SchemaError) as err:
        structure_from_json(payload)
    assert str(err.value).startswith(f"{field}:")


def load_outcome(payload):
    """Rows and roles of a loaded payload, or the text of its SchemaError."""
    try:
        cs, roles = structure_from_json(payload)
    except SchemaError as exc:
        return str(exc)
    return cs.contact.rows, roles


def assert_loader_agrees(payload):
    with patch.object(serialize, "_contact_rows", contact_rows):
        expected = load_outcome(payload)
    assert load_outcome(payload) == expected


@pytest.mark.parametrize("mutate, field", MUTATIONS)
def test_loader_agrees_with_two_pass_oracle_on_mutations(sep2, mutate, field):
    payload = base_payload(sep2)
    mutate(payload)
    assert_loader_agrees(payload)


@pytest.mark.parametrize(
    "contact",
    [
        [],
        [[1, 2], [1, 3]],
        [[True, 2], [1, 3]],  # JSON true in a pair is refused, not read as 1
        [[1, 3], [1, 2]],
        [[1, 2], [True, 2]],
        [[1, 3], [1, 2], [1, "x"]],  # a late type error after an early disorder
        [[2, 3], [1, 2], 7],
        [[1, 3], [1, 3], [4, 2]],
        [[1, 2], [3, 1.0]],
        [[1, 2], [3]],
        [[1, 2], (3, 4)],
        [[1, 2], [0, 4]],
        [[1, 2], [4, 99]],
        [[1, 2], [3, 12]],  # the separator at n = 2 has 12 elements
        [[1, 2], [5, 5]],
        [[1, 2], [False, 5]],
        {"1": 2},
        None,
    ],
)
def test_loader_agrees_with_two_pass_oracle_on_contact_lists(sep2, contact):
    payload = base_payload(sep2)
    payload["contact"] = contact
    assert_loader_agrees(payload)


def fuzzed_item(size):
    index = st.integers(min_value=-1, max_value=size + 1)
    return st.one_of(
        st.lists(index, min_size=2, max_size=2),  # zero, out of range, descending
        st.lists(index, max_size=4),  # wrong lengths
        st.tuples(index, index),  # not a list
        st.integers() | st.none() | st.text(max_size=2),
        st.lists(index | st.floats() | st.booleans(), min_size=2, max_size=2),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_loader_agrees_with_two_pass_oracle_on_fuzzed_lists(sep2, data):
    size = sep2.structure.size
    valid = [[i, j] for i in range(1, size) for j in range(i + 1, size)]
    contact = data.draw(
        st.lists(st.sampled_from(valid), unique_by=tuple, max_size=12).map(sorted)
    )
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        edit = data.draw(st.sampled_from(["swap", "duplicate", "insert", "bool"]))
        pos = data.draw(st.integers(min_value=0, max_value=len(contact)))
        if edit == "insert":
            contact.insert(pos, data.draw(fuzzed_item(size)))
        elif contact and pos < len(contact):
            other = data.draw(st.integers(min_value=0, max_value=len(contact) - 1))
            if edit == "swap":
                contact[pos], contact[other] = contact[other], contact[pos]
            elif edit == "duplicate":
                contact.insert(other, contact[pos])
            elif isinstance(contact[pos], list) and contact[pos][:1] == [1]:
                contact[pos] = [True] + contact[pos][1:]
    payload = base_payload(sep2)
    payload["contact"] = contact
    assert_loader_agrees(payload)


json_text = st.text(st.characters(exclude_categories=()), max_size=6)
int_pair = st.lists(st.integers(), min_size=2, max_size=2) | st.tuples(
    st.integers(), st.booleans()
).map(list) | st.tuples(st.booleans(), st.integers()).map(list)
json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    json_text,
    st.lists(int_pair, max_size=5),
    st.lists(st.lists(st.integers(), max_size=3), max_size=4),  # ragged
    st.lists(st.integers(), max_size=4),
    st.lists(json_text, max_size=4),
)
json_values = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(json_text, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
        st.tuples(inner, inner),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_canonical_dumps_matches_json_dumps(value):
    assert canonical_dumps(value) == canonical_dumps_reference(value)


def test_canonical_dumps_matches_json_dumps_on_certificates(sep3):
    payload = structure_to_json(sep3.structure, sep3.roles)
    assert canonical_dumps(payload) == canonical_dumps_reference(payload)
    cert = {"structure": payload, "entries": [{"pairs": [[1, 2]], "x": 0.5}]}
    assert canonical_dumps(cert) == canonical_dumps_reference(cert)


def test_non_object_payload_rejected():
    with pytest.raises(SchemaError):
        structure_from_json([1, 2, 3])


def test_dot_export_deterministic(sep2):
    a = structure_to_dot(sep2.structure, sep2.roles)
    b = structure_to_dot(sep2.structure, sep2.roles)
    assert a == b
    assert a.startswith("digraph structure {")
    # non-contact pairs are drawn dashed
    assert a.count("style=dashed") == 2


def test_dot_chain_snapshot():
    lattice = join_closure(1, [1])
    cs = ContactStructure(lattice, contact_from_related_pairs(2, []))
    expected = (
        "digraph structure {\n"
        "  rankdir=BT;\n"
        '  node [shape=box, fontname="monospace"];\n'
        '  n0 [label="0"];\n'
        '  n1 [label="1" style=filled fillcolor="lightgrey"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )
    assert structure_to_dot(cs) == expected


def test_representation_dot(sep2):
    rep = decide_weak_representable(sep2.structure)
    dot = representation_to_dot(rep.to_json())
    assert dot.startswith("graph representation {")
    assert dot.count(" -- ") == sum(img.bit_count() for img in rep.images)
