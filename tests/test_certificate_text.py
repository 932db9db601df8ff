"""The structure text a certificate hashes and embeds, and the values it records.

``structure_dumps`` writes a structure's canonical JSON from its relation
rows, and ``loaded_structure_dumps`` writes a loaded payload's text the same
way; both must equal the ``json`` one-liner on the payload byte for byte.  A
certificate hashes that text and embeds it as a ``CanonicalText`` member,
which the writer writes in place, so an edit of the embedded structure must
still break the hash.  The certificates
under ``tests/data`` were written before the text came from the rows (``sn
--n 3``, and ``check … d2 --n 2`` and ``represent … --mode weak`` on the
level-2 separator); they must verify and be rewritten byte for byte, and the
pinned digests catch any drift in what ``sn``, ``check`` and ``represent``
write.  Every int a certificate records is refused by type when it is not a
plain int.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scan_oracles
from contactlab.axioms import Witness
from contactlab.certificates import build_certificate, verify_certificate
from contactlab.cli import main
from contactlab.constructions import build_separator
from contactlab.core import ContactStructure, join_closure, overlap_contact
from contactlab.enumeration import enumerate_contacts, enumerate_semilattices
from contactlab.serialize import (
    CanonicalText,
    canonical_dumps,
    loaded_structure_dumps,
    structure_dumps,
    structure_from_json,
    structure_sha256,
    structure_to_json,
)
from scan_oracles import canonical_dumps_reference, contact_from_related_pairs

DATA = Path(__file__).parent / "data"
HASH_PROBLEM = "structure_sha256 does not match the embedded structure"

# SHA-256 of each certificate's text with the ``elapsed_s`` values cut out;
# ``check`` and ``represent`` read the level-2 separator's structure file.
DIGESTS = {
    "sn2": "f09fae9ab9246e5c6c66df2347fa2f6fc4a04a8956b0afafc456fd2264385e64",
    "sn3": "5c63e0c2a73c969cd7230e9f8bb2b1570d83d6949c15ef874cf9234f792c5c61",
    "sn4": "1b9a92aae3cdce06ecc210a52937fc05c5bc1f96525ff8428369d06c20275ab8",
    "sn5": "0675f6a29ff6a478ac8a1d0fb3e4ea544bd0cd8c260675fd5e54d2abaf16b62f",
    "check-d2": "5b2a645594f60d9474605f3b2e8b669131e7eaab64bc0c17908e1516c9a202f9",
    "represent-weak": "31ea9f4545d41b03c1849f7fe2de9877bd0c7109cfbd5108d1757eb309036a37",
}


def without_elapsed(text: str) -> str:
    return re.sub(r'("elapsed_s": )[^,\n}]*', r"\1", text)


def assert_same_text(got: str, expected: str) -> None:
    """Equal texts; else the first difference, without a diff of the whole
    (which takes minutes on a certificate)."""
    if got != expected:
        at = next(
            (k for k, (x, y) in enumerate(zip(got, expected)) if x != y),
            min(len(got), len(expected)),
        )
        pytest.fail(
            f"texts differ at offset {at}: "
            f"{got[at - 40 : at + 40]!r} != {expected[at - 40 : at + 40]!r}"
        )


def assert_writer_matches(cs, roles=None):
    payload = structure_to_json(cs, roles)
    text = structure_dumps(cs, roles)
    assert_same_text(text, canonical_dumps_reference(payload))
    raw = json.loads(text)
    assert_same_text(loaded_structure_dumps(raw, structure_from_json(raw)[0]), text)
    assert structure_sha256(text) == structure_sha256(payload)


# ---------------------------------------------------------------------------
# the row writer


def test_writer_matches_reference_on_the_corpus_to_size_six():
    count = 0
    for lattice in enumerate_semilattices(6):
        for rel in enumerate_contacts(lattice):
            cs = ContactStructure(lattice, rel)
            assert_writer_matches(cs)
            assert_writer_matches(cs, {"top": lattice.top})
            count += 1
    assert count == 149


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_writer_matches_reference_on_separators(n):
    sep = build_separator(n)
    assert_writer_matches(sep.structure, sep.roles)
    assert_writer_matches(sep.structure)


def test_writer_on_the_one_element_carrier_and_an_empty_relation():
    single = ContactStructure(join_closure(0, []), contact_from_related_pairs(1, []))
    assert_writer_matches(single)
    assert '"contact": [],' in structure_dumps(single)
    lattice = join_closure(3, [1, 2, 4])
    empty = ContactStructure(lattice, contact_from_related_pairs(lattice.size, []))
    assert_writer_matches(empty, {})
    assert '"contact": [],' in structure_dumps(empty, {})


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=7),
    st.lists(st.integers(min_value=0, max_value=127), max_size=5),
    st.randoms(use_true_random=False),
    st.dictionaries(st.text(max_size=4), st.integers(min_value=0), max_size=3),
)
def test_writer_matches_reference_on_generated_structures(width, gens, rng, names):
    lattice = join_closure(width, [g & ((1 << width) - 1) for g in gens])
    size = lattice.size
    pairs = [(i, j) for i in range(1, size) for j in range(i + 1, size)]
    related = [pair for pair in pairs if rng.random() < 0.6]
    roles = {name: idx % size for name, idx in names.items()}
    rel = contact_from_related_pairs(size, related)
    assert_writer_matches(ContactStructure(lattice, rel), roles)
    assert_writer_matches(ContactStructure(lattice, overlap_contact(lattice)), roles)


def test_loaded_text_keeps_the_payloads_other_fields(sep2):
    raw = structure_to_json(sep2.structure, sep2.roles)
    raw["carrier"][1] = "0" + raw["carrier"][1]
    raw.update(note=["kept", {"b": 1.5, "a": None}, 0.0])
    cs, _ = structure_from_json(raw)
    assert_same_text(loaded_structure_dumps(raw, cs), canonical_dumps_reference(raw))


def test_certificate_splices_the_structure_text_it_hashes(sep3):
    cert = build_certificate("sn", {"n": 3}, sep3.structure, sep3.roles, [], 0.0)
    assert type(cert["structure"]) is CanonicalText
    payload = structure_to_json(sep3.structure, sep3.roles)
    assert cert["structure_sha256"] == structure_sha256(payload)
    plain = dict(cert, structure=payload)
    assert_same_text(canonical_dumps(cert), canonical_dumps_reference(plain))


# ---------------------------------------------------------------------------
# verification of the embedded structure


def _pad_hex(raw):
    raw["carrier"][1] = "0" + raw["carrier"][1]


@pytest.mark.parametrize(
    "edit",
    [
        _pad_hex,
        lambda raw: raw.update(extra=1),
        lambda raw: raw["roles"].update(gen_1=raw["roles"]["gen_1"] - 1),
        lambda raw: raw["contact"].pop(3),
    ],
    ids=["hex-of-another-width", "extra-key", "edited-role", "dropped-pair"],
)
def test_an_edited_structure_breaks_the_hash(tmp_path, edit):
    out = tmp_path / "sn2.json"
    assert main(["sn", "--n", "2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert verify_certificate(cert) == []
    edit(cert["structure"])
    assert HASH_PROBLEM in verify_certificate(cert)


@pytest.mark.parametrize("name", ["sn3", "check-d2", "represent-weak"])
def test_committed_certificates_verify_and_are_rewritten_byte_for_byte(tmp_path, name):
    path = DATA / f"{name}.cert.json"
    text = path.read_text(encoding="utf-8")
    cert = json.loads(text)
    assert verify_certificate(cert) == []
    assert main(["verify-certificate", str(path)]) == 0
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps(cert["structure"]))
    argv = {
        "sn3": ["sn", "--n", "3"],
        "check-d2": ["check", str(structure), "d2", "--n", "2"],
        "represent-weak": ["represent", str(structure), "--mode", "weak"],
    }[name]
    out = tmp_path / "again.json"
    main(argv + ["--out", str(out)])
    assert_same_text(without_elapsed(out.read_text(encoding="utf-8")), without_elapsed(text))


def test_certificate_bytes_match_the_pinned_digests(tmp_path):
    sep = build_separator(2)
    s2 = tmp_path / "s2.json"
    scan_oracles.write_structure_file(str(s2), sep.structure, sep.roles)
    runs = {f"sn{n}": ["sn", "--n", str(n)] for n in range(2, 6)}
    runs["check-d2"] = ["check", str(s2), "d2", "--n", "2"]
    runs["represent-weak"] = ["represent", str(s2), "--mode", "weak"]
    digests = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        main(argv + ["--out", str(out)])
        text = without_elapsed(out.read_text(encoding="utf-8"))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == DIGESTS


# ---------------------------------------------------------------------------
# recorded ints


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("sn3", (5, "params", "n"), True),
        ("sn3", (5, "params", "n"), 1.0),
        ("sn3", (5, "params", "n"), "1"),
        ("sn3", (7, "witness", "elements", "a"), 12.0),
        ("sn3", (7, "witness", "pairs", 0, 1), 9.0),
        ("sn3", (8, "witness", "elements", "b"), True),
        ("sn3", (8, "params", "n"), 3.0),
        ("sn3", (1, "value"), 42.0),
        ("sn3", (2, "expected"), 8.0),
        ("represent-weak", (0, "payload", "ground_size"), 4.0),
        ("represent-weak", (0, "payload", "columns", 0), True),
        ("check-d2", (0, "params", "n"), True),
    ],
    ids=[
        "axiom-params-true", "axiom-params-float", "axiom-params-string",
        "axiom-witness-element", "axiom-witness-pair", "witness-check-element",
        "witness-check-params", "fact-value", "fact-expected",
        "representation-ground-size", "representation-column", "check-params",
    ],
)
def test_recorded_ints_must_be_ints(tmp_path, capsys, name, path, value):
    cert = json.loads((DATA / f"{name}.cert.json").read_text())
    target = cert["entries"]
    for key in path[:-1]:
        target = target[key]
    assert type(target[path[-1]]) is int
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(bad)]) == 2
    err = capsys.readouterr().err
    field = "entries" + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
    assert err.startswith(f"input error: {field}: expected an int, got ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "paths",
    [
        [("entries", 8, "valid")],
        [("entries", 8, "expected")],
        [("entries", pos, "value") for pos in range(9, 15)],
        [("entries", 12, "expected")],
        [("conclusion", "ok")],
    ],
    ids=["witness-check-valid", "witness-check-expected", "separator-values",
         "separator-expected", "conclusion-ok"],
)
def test_recorded_booleans_must_be_booleans(tmp_path, capsys, paths):
    # Python's == takes 1 for true, so each of these edits verified as
    # written until the booleans were refused by type; the first edited
    # field is named.
    cert = json.loads((DATA / "sn3.cert.json").read_text())
    for path in paths:
        target = cert
        for key in path[:-1]:
            target = target[key]
        assert target[path[-1]] is True
        target[path[-1]] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(bad)]) == 2
    err = capsys.readouterr().err
    first = paths[0]
    field = first[0] + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in first[1:])
    assert err == f"input error: {field}: expected a boolean, got 1\n"


def test_witness_from_json_refuses_indices_that_are_not_ints():
    good = {"kind": "d2", "elements": {"a": 3, "b": 5}, "pairs": [[1, 8]]}
    assert Witness.from_json(good).to_json() == good
    for bad in (
        {**good, "elements": {"a": 12.0, "b": 5}},
        {**good, "elements": {"a": True, "b": 5}},
        {**good, "pairs": [[1, "8"]]},
    ):
        with pytest.raises(ValueError, match="witness indices must be ints"):
            Witness.from_json(bad)


def _copy_witness_check_at_level_one(cert):
    check = next(e for e in cert["entries"] if e["kind"] == "witness-check")
    assert check["params"] == {"n": 3} and len(check["witness"]["pairs"]) == 3
    cert["entries"].append({**check, "params": {"n": 1}})
    return len(cert["entries"]) - 1


def _rename_the_witness_kind(cert):
    pos, check = next(
        (pos, e) for pos, e in enumerate(cert["entries"]) if e["kind"] == "witness-check"
    )
    check["witness"]["kind"] = "anything"
    return pos


def _add_a_role(cert):
    pos, check = next(
        (pos, e) for pos, e in enumerate(cert["entries"]) if e["kind"] == "witness-check"
    )
    check["witness"]["elements"]["c"] = 0
    return pos


@pytest.mark.parametrize(
    "edit",
    [_copy_witness_check_at_level_one, _rename_the_witness_kind, _add_a_role],
    ids=["three-pairs-at-level-one", "kind-anything", "role-c"],
)
def test_designated_witness_must_fit_its_level_and_kind(tmp_path, capsys, edit):
    # Each edit verified with no problems while revalidate_witness read
    # neither the witness's kind nor its pair count against the level, nor
    # any role but those it needs.
    cert = json.loads((DATA / "sn3.cert.json").read_text())
    pos = edit(cert)
    line = f"entries[{pos}]: witness-check d2 does not reproduce"
    assert verify_certificate(cert) == [line]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(bad)]) == 1
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize(
    "conclusion, message",
    [
        (None, "conclusion: expected an object with a boolean ok"),
        ([True], "conclusion: expected an object with a boolean ok"),
        ({}, "conclusion.ok: expected a boolean, got None"),
        ({"ok": None}, "conclusion.ok: expected a boolean, got None"),
    ],
    ids=["missing", "list", "missing-ok", "null-ok"],
)
def test_conclusion_ok_is_required(tmp_path, capsys, conclusion, message):
    # A certificate without its conclusion, or without conclusion.ok,
    # verified as long as its entries did.
    cert = json.loads((DATA / "sn3.cert.json").read_text())
    if conclusion is None:
        del cert["conclusion"]
    else:
        cert["conclusion"] = conclusion
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(bad)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("name", ["check-d2", "represent-weak"])
def test_an_appended_witness_check_carries_exactly_its_roles(tmp_path, capsys, name):
    # ``check`` and ``represent`` write no witness check, but one appended
    # is re-derived like any entry; with the level-2 d2 witness of their
    # structure, the level-2 separator, and a role d2 witnesses do not have,
    # it verified.
    cert = json.loads((DATA / f"{name}.cert.json").read_text())
    witness = json.loads((DATA / "check-d2.cert.json").read_text())["entries"][0]["witness"]
    cert["entries"].append(
        {"kind": "witness-check", "axiom": "d2", "params": {"n": 2},
         "witness": witness, "valid": True, "expected": True}
    )
    assert verify_certificate(cert) == []
    pos = _add_a_role(cert)
    line = f"entries[{pos}]: witness-check d2 does not reproduce"
    assert verify_certificate(cert) == [line]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(bad)]) == 1
    assert capsys.readouterr().out == line + "\n"


# ---------------------------------------------------------------------------
# the writer


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda path: path.name)
def test_data_files_re_encode_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert_same_text(canonical_dumps(json.loads(text)), text)


def test_commands_write_and_verify_without_the_json_encoder(tmp_path, monkeypatch):
    # Every certificate, the corpus's implications.json and every
    # verification are written by serialize's own writer: the indenting
    # json encoder may not run.
    def refuse(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode called")

    sep = build_separator(3)
    s3 = tmp_path / "s3.json"
    scan_oracles.write_structure_file(str(s3), sep.structure, sep.roles)
    runs = {
        "sn3": (["sn", "--n", "3"], 0),
        "check-d2": (["check", str(s3), "d2", "--n", "2"], 0),
        "check-d2all": (["check", str(s3), "d2all"], 1),
        "represent-weak": (["represent", str(s3), "--mode", "weak"], 0),
        "represent-overlap": (["represent", str(s3), "--mode", "overlap"], 1),
    }
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for name, (argv, code) in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == code
        assert main(["verify-certificate", str(out)]) == 0
    corpus = tmp_path / "corpus"
    assert main(["enumerate", "--max-size", "3", "--out", str(corpus)]) == 0
    assert json.loads((corpus / "implications.json").read_text())["implications"]
