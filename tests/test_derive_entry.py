"""One derivation per certificate entry, for writing and for verifying.

``sn``, ``check`` and ``represent`` write every entry through
``certificates.derive_entry``, and ``verify_certificate`` re-derives each
recorded entry through it and compares the whole entry, ``stats`` aside.  So
every entry these commands write must equal ``derive_entry`` of itself, and
a field no derivation reproduces must be refused.
"""

import json

import pytest

import scan_oracles
from contactlab.axioms import CHECKERS
from contactlab.certificates import (
    derive_entry,
    separator_extension_facts,
    verify_certificate,
)
from contactlab.cli import main
from contactlab.constructions import build_separator
from contactlab.serialize import matches_canonical_construction, structure_from_json


def _written(tmp_path, argv):
    out = tmp_path / "cert.json"
    main(argv + ["--out", str(out)])
    return json.loads(out.read_text())


def _without_stats(entry):
    return {key: value for key, value in entry.items() if key != "stats"}


def assert_entries_rederive(cert, separator_facts=None):
    cs, _ = structure_from_json(cert["structure"])
    for entry in cert["entries"]:
        fresh = derive_entry(cs, entry, separator_facts)
        assert _without_stats(fresh) == _without_stats(entry)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sn_entries_equal_their_rederivation(tmp_path, n):
    cert = _written(tmp_path, ["sn", "--n", str(n)])
    assert len(cert["entries"]) == 12 + n
    sep = build_separator(n)
    raw = cert["structure"]
    cs, _ = structure_from_json(raw)
    facts = {
        "matches_canonical_construction": matches_canonical_construction(
            raw, cs, sep.structure, sep.roles
        ),
        **separator_extension_facts(sep),
    }
    assert all(facts.values())
    assert_entries_rederive(cert, lambda: facts)


def test_check_and_represent_entries_equal_their_rederivation(sep2, tmp_path):
    s2 = tmp_path / "s2.json"
    scan_oracles.write_structure_file(str(s2), sep2.structure, sep2.roles)
    runs = [["check", str(s2), axiom] for axiom in sorted(CHECKERS)]
    runs += [["check", str(s2), axiom, "--n", "2"] for axiom in ("d2", "d1plus")]
    runs += [["represent", str(s2), "--mode", mode] for mode in ("weak", "overlap")]
    outcomes = set()
    for argv in runs:
        cert = _written(tmp_path, argv)
        (entry,) = cert["entries"]
        outcomes.add(entry.get("verdict") or entry["outcome"])
        assert_entries_rederive(cert)
    assert outcomes == {"pass", "fail", "success", "refusal"}


def test_a_witness_check_always_expects_its_witness_to_revalidate(tmp_path, capsys):
    # With the expectation turned to false and the conclusion edited to
    # match, every recorded value still re-derives; the expectation does not.
    cert = _written(tmp_path, ["sn", "--n", "2"])
    (pos,) = [k for k, e in enumerate(cert["entries"]) if e["kind"] == "witness-check"]
    cert["entries"][pos]["expected"] = False
    cert["conclusion"]["ok"] = False
    line = f"entries[{pos}]: witness-check d2 does not reproduce"
    assert verify_certificate(cert) == [line]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(path)]) == 1
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize(
    "edit, kind, name",
    [
        (lambda e: e.update(verdict="fail"), "axiom", "d1"),
        (lambda e: e.update(value=5), "fact", "ground_size"),
        (lambda e: e.update(valid=False), "witness-check", "d2"),
        (lambda e: e.update(value=False), "separator", "extension_preserves"),
        (lambda e: e.update(note="extra"), "fact", "atom_count"),
    ],
    ids=["verdict", "fact-value", "witness-valid", "separator-value", "extra-field"],
)
def test_each_mismatch_is_one_line_naming_the_entry(tmp_path, edit, kind, name):
    cert = _written(tmp_path, ["sn", "--n", "2"])
    (pos,) = [
        k
        for k, e in enumerate(cert["entries"])
        if e["kind"] == kind and name in (e.get("axiom"), e.get("fact"))
        and e.get("params") in (None, {}, {"n": 2})
    ]
    edit(cert["entries"][pos])
    problems = [p for p in verify_certificate(cert) if not p.startswith("conclusion")]
    assert problems == [f"entries[{pos}]: {kind} {name} does not reproduce"]


def test_representation_mismatch_names_its_mode(sep2, tmp_path):
    s2 = tmp_path / "s2.json"
    scan_oracles.write_structure_file(str(s2), sep2.structure, sep2.roles)
    cert = _written(tmp_path, ["represent", str(s2), "--mode", "weak"])
    cert["entries"][0]["outcome"] = "refusal"
    problem = "entries[0]: representation weak does not reproduce"
    assert verify_certificate(cert) == [problem]
