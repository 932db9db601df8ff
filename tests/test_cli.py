"""CLI surface: exit codes, certificates, corpus files, DOT output."""

import json
import os
import subprocess
import sys

import pytest

import contactlab
from contactlab import constructions
from contactlab import certificates
from contactlab.certificates import matches_canonical_construction, verify_certificate
from contactlab import cli
from contactlab.cli import main
from contactlab.core import WIDTH_CAP
from contactlab.serialize import (
    mask_to_hex,
    structure_from_json,
    structure_to_json,
    write_structure_file,
)


@pytest.fixture(scope="module")
def s2_file(tmp_path_factory):
    from contactlab.constructions import build_separator

    sep = build_separator(2)
    path = tmp_path_factory.mktemp("structures") / "s2.json"
    write_structure_file(str(path), sep.structure, sep.roles)
    return str(path)


def test_sn_certificate_and_exit_code(tmp_path):
    out = tmp_path / "sn2.json"
    assert main(["sn", "--n", "2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["conclusion"]["ok"] is True
    assert verify_certificate(cert) == []


def test_sn_usage_errors():
    assert main(["sn", "--n", "1"]) == 2
    assert main(["sn", "--n", "7"]) == 2
    assert main(["sn", "--n", "2", "--depth", "0"]) == 2


def test_sn_level_five_certificate_verifies(tmp_path):
    out = tmp_path / "sn5.json"
    assert main(["sn", "--n", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["conclusion"]["ok"] is True
    assert main(["verify-certificate", str(out)]) == 0


@pytest.mark.slow
def test_sn_level_six_certificate_verifies(tmp_path):
    out = tmp_path / "sn6.json"
    assert main(["sn", "--n", "6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["conclusion"]["ok"] is True
    assert main(["verify-certificate", str(out)]) == 0


def test_sn_depth_flag(tmp_path):
    out = tmp_path / "sn3d2.json"
    assert main(["sn", "--n", "3", "--depth", "2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    levels = [
        e["params"]["n"] for e in cert["entries"] if e["kind"] == "axiom" and e["axiom"] == "d2"
    ]
    assert levels == [1, 2]  # failure level not asserted when depth < n


def test_sn_depth_beyond_failure_level(tmp_path):
    # levels past the first failing one keep failing (monotone hierarchy)
    out = tmp_path / "sn2d3.json"
    assert main(["sn", "--n", "2", "--depth", "3", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    d2 = {
        e["params"]["n"]: e["verdict"]
        for e in cert["entries"]
        if e["kind"] == "axiom" and e["axiom"] == "d2"
    }
    assert d2 == {1: "pass", 2: "fail", 3: "fail"}


def test_verify_detects_structure_swap(tmp_path):
    out = tmp_path / "sn2.json"
    main(["sn", "--n", "2", "--out", str(out)])
    cert = json.loads(out.read_text())
    other = tmp_path / "sn3.json"
    main(["sn", "--n", "3", "--out", str(other)])
    cert["structure"] = json.loads(other.read_text())["structure"]
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(cert))
    assert main(["verify-certificate", str(swapped)]) == 1


def test_check_exit_codes(s2_file, tmp_path):
    assert main(["check", s2_file, "d1"]) == 0
    assert main(["check", s2_file, "d2", "--n", "2"]) == 1
    assert main(["check", s2_file, "d2", "--n", "1"]) == 0
    assert main(["check", s2_file, "weak-contact"]) == 0
    assert main(["check", s2_file, "d2minus"]) == 0
    assert main(["check", s2_file, "add"]) == 0
    out = tmp_path / "cert.json"
    assert main(["check", s2_file, "d2all", "--out", str(out)]) == 1
    cert = json.loads(out.read_text())
    assert verify_certificate(cert) == []


def test_check_rejects_bad_input(tmp_path, s2_file):
    missing = tmp_path / "nope.json"
    assert main(["check", str(missing), "d1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad), "d1"]) == 2
    payload = json.loads(open(s2_file).read())
    payload["contact"] = payload["contact"][5:]  # monotonicity broken
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert main(["check", str(broken), "weak-contact"]) == 1
    assert main(["check", str(broken), "d1"]) == 2


def test_parser_built_once_gives_fresh_parser_results(s2_file, capsys, monkeypatch):
    """Several main calls on the one cached parser exit and print as they
    would with a parser built per call."""
    runs = (["check", s2_file, "d2", "--n", "x"], ["check", s2_file, "d1"], ["sn", "--n", "99"])

    def outcomes():
        out = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out.append((code, *capsys.readouterr()))
        return out

    assert cli.build_parser() is cli.build_parser()
    cached = outcomes()
    assert [code for code, _, _ in cached] == [2, 0, 2]
    assert "argument --n: expected a positive integer, got 'x'" in cached[0][2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert outcomes() == cached


def test_represent_exit_codes(s2_file, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["represent", s2_file, "--mode", "weak", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert verify_certificate(cert) == []
    assert main(["represent", s2_file, "--mode", "overlap"]) == 1


def test_enumerate_outputs(tmp_path):
    out = tmp_path / "corpus"
    assert main(["enumerate", "--max-size", "4", "--out", str(out)]) == 0
    lines = (out / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 6
    for line in lines:
        json.loads(line)
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 7  # header + records
    report = json.loads((out / "implications.json").read_text())
    assert list(report) == ["implications"]
    assert all(not item["violations"] for item in report["implications"])


def test_enumerate_size_two(tmp_path):
    out = tmp_path / "tiny"
    assert main(["enumerate", "--max-size", "2", "--out", str(out)]) == 0
    lines = (out / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 2  # the one-point structure and the two-chain
    sizes = [json.loads(line)["size"] for line in lines]
    assert sizes == [1, 2]


def test_enumerate_size_five_clean(tmp_path):
    out = tmp_path / "five"
    assert main(["enumerate", "--max-size", "5", "--out", str(out)]) == 0


def test_corpus_independent_of_hash_seed(tmp_path):
    # The child runs the very package this process imported, whether from a
    # plain checkout (PYTHONPATH=src) or an install; nothing else leaks in.
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(contactlab.__file__))
    )
    outputs = []
    for seed in ("0", "424242"):
        out = tmp_path / f"seed{seed}"
        env = {
            "PYTHONHASHSEED": seed,
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": package_root,
        }
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "contactlab.cli",
                "enumerate",
                "--max-size",
                "4",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((out / "corpus.jsonl").read_text())
    assert outputs[0] == outputs[1]


def test_enumerate_threads_deterministic(tmp_path):
    single = tmp_path / "one"
    double = tmp_path / "two"
    assert main(["enumerate", "--max-size", "3", "--out", str(single)]) == 0
    assert main(
        ["enumerate", "--max-size", "3", "--threads", "2", "--out", str(double)]
    ) == 0
    assert (single / "corpus.jsonl").read_text() == (
        double / "corpus.jsonl"
    ).read_text()


def test_verify_certificate_detects_tampering(tmp_path):
    out = tmp_path / "sn2.json"
    main(["sn", "--n", "2", "--out", str(out)])
    assert main(["verify-certificate", str(out)]) == 0
    cert = json.loads(out.read_text())
    for entry in cert["entries"]:
        if entry["kind"] == "axiom" and entry["axiom"] == "d1":
            entry["verdict"] = "fail"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    assert main(["verify-certificate", str(tampered)]) == 1


def test_verify_certificate_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["verify-certificate", str(bad)]) == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda params: params.update(n=7),
        lambda params: params.update(n=1),
        lambda params: params.pop("n"),
    ],
    ids=["n-above-cap", "n-below-two", "n-missing"],
)
def test_verify_certificate_bounds_separator_level(monkeypatch, tmp_path, capsys, mutate):
    out = tmp_path / "sn2.json"
    assert main(["sn", "--n", "2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    mutate(cert["parameters"])
    out.write_text(json.dumps(cert))

    def refuse(n):
        raise AssertionError(f"separator {n} rebuilt before parameters.n was checked")

    monkeypatch.setattr(certificates, "build_separator", refuse)
    capsys.readouterr()
    assert main(["verify-certificate", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: parameters.n:")
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [2, 3])
def test_matches_canonical_construction_agrees_with_payload_equality(tmp_path, n):
    """The field-wise verdict equals comparing the rebuilt separator's whole
    payload with the embedded one, on the certificate and on edits of it."""
    out = tmp_path / "sn.json"
    assert main(["sn", "--n", str(n), "--out", str(out)]) == 0
    sep = constructions.build_separator(n)

    def pad_hex(raw):
        raw["carrier"][1] = "0" + raw["carrier"][1]

    def rename_role(raw):
        raw["roles"]["gen_x"] = raw["roles"].pop("gen_1")

    edits = {
        "unchanged": lambda raw: None,
        "padded-hex": pad_hex,
        "extra-key": lambda raw: raw.update(extra=1),
        "dropped-role": lambda raw: raw["roles"].pop("gen_1"),
        "renamed-role": rename_role,
        "no-roles": lambda raw: raw.pop("roles"),
        "pair-removed": lambda raw: raw["contact"].pop(3),
        "ground-size-changed": lambda raw: raw.update(ground_size=raw["ground_size"] + 1),
    }
    for name, edit in edits.items():
        raw = json.loads(out.read_text())["structure"]
        edit(raw)
        cs, _ = structure_from_json(raw)
        expected = structure_to_json(sep.structure, sep.roles) == raw
        assert expected == (name == "unchanged"), name
        assert matches_canonical_construction(raw, cs, sep) == expected, name


def test_structure_files_bounded_by_width_cap(tmp_path, capsys):
    for width, code in ((WIDTH_CAP, 0), (WIDTH_CAP + 1, 2)):
        path = tmp_path / f"wide{width}.json"
        path.write_text(json.dumps({
            "version": 1,
            "ground_size": width,
            "carrier": [mask_to_hex(0, width), mask_to_hex(1, width)],
            "zero": 0,
            "contact": [],
        }))
        capsys.readouterr()
        assert main(["check", str(path), "weak-contact"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("input error: ground_size:")


def test_cli_import_leaves_process_pool_unloaded():
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(contactlab.__file__))
    )
    probe = (
        "import sys, contactlab.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_sn_and_verify_never_build_the_ambient_powerset(monkeypatch, tmp_path):
    def refuse(width):
        raise AssertionError(f"powerset of width {width} materialized")

    monkeypatch.setattr(constructions, "powerset_lattice", refuse)
    for n in (2, 3, 4):
        out = tmp_path / f"sn{n}.json"
        assert main(["sn", "--n", str(n), "--out", str(out)]) == 0
        assert main(["verify-certificate", str(out)]) == 0


def _assert_input_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda cert: cert.update(entries=5),
        lambda cert: cert["entries"].append(3),
        lambda cert: cert.update(conclusion=[]),
        lambda cert: cert["entries"].append({"fact": "ground_size", "expected": 4}),
    ],
    ids=["entries-not-a-list", "entry-not-an-object", "conclusion-not-an-object",
         "entry-without-kind"],
)
def test_verify_certificate_malformed_entries(tmp_path, capsys, mutate):
    out = tmp_path / "sn2.json"
    assert main(["sn", "--n", "2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    mutate(cert)
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    _assert_input_error(["verify-certificate", str(out)], capsys)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda cert: cert["entries"][0]["payload"].pop("images"),
        lambda cert: cert["entries"][0]["payload"]["images"].__setitem__(0, "zz"),
        lambda cert: cert["entries"].insert(0, "representation"),
    ],
    ids=["payload-without-images", "non-hex-image", "entry-not-an-object"],
)
def test_export_dot_malformed_certificate(s2_file, tmp_path, capsys, mutate):
    out = tmp_path / "rep.json"
    assert main(["represent", s2_file, "--mode", "weak", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    mutate(cert)
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    _assert_input_error(["export-dot", str(out)], capsys)


def test_export_dot(s2_file, tmp_path, capsys):
    assert main(["export-dot", s2_file]) == 0
    first = capsys.readouterr().out
    assert main(["export-dot", s2_file]) == 0
    assert capsys.readouterr().out == first
    rep_cert = tmp_path / "rep.json"
    main(["represent", s2_file, "--mode", "weak", "--out", str(rep_cert)])
    out_file = tmp_path / "rep.dot"
    assert main(["export-dot", str(rep_cert), "--out", str(out_file)]) == 0
    assert out_file.read_text().startswith("graph representation {")


def test_console_entry_point_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "contactlab.cli", "sn", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "all asserted facts verified" in result.stdout


def test_seed_flag_is_a_usage_error(s2_file, tmp_path, capsys):
    for argv in (
        ["sn", "--n", "2"],
        ["check", s2_file, "d1"],
        ["represent", s2_file, "--mode", "weak"],
        ["enumerate", "--max-size", "2", "--out", str(tmp_path / "corpus")],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_certificates_with_a_seed_parameter_still_verify(tmp_path):
    # Certificates written while --seed existed record parameters.seed.
    out = tmp_path / "sn2.json"
    assert main(["sn", "--n", "2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert "seed" not in cert["parameters"]
    cert["parameters"]["seed"] = None
    assert verify_certificate(cert) == []


def test_nonpositive_level_and_threads_are_usage_errors(s2_file, tmp_path, capsys):
    for argv in (
        ["check", s2_file, "d2", "--n", "0"],
        ["check", s2_file, "d1plus", "--n", "0"],
        ["check", s2_file, "d2", "--n", "-2"],
        ["enumerate", "--max-size", "3", "--threads", "0", "--out", str(tmp_path / "t0")],
        ["enumerate", "--max-size", "3", "--threads", "-1", "--out", str(tmp_path / "t1")],
        ["enumerate", "--max-size", "3", "--depth", "0", "--out", str(tmp_path / "t2")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "t0").exists()
