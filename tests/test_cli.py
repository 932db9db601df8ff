"""CLI surface: exit codes, certificates, corpus files, DOT output."""

import json
import os
import subprocess
import sys

import pytest

import contactlab
from contactlab.certificates import verify_certificate
from contactlab.cli import main
from contactlab.serialize import write_structure_file


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
    assert main(["sn", "--n", "5"]) == 2
    assert main(["sn", "--n", "2", "--depth", "0"]) == 2


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


def test_represent_exit_codes(s2_file, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["represent", s2_file, "--mode", "weak", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert verify_certificate(cert) == []
    assert main(["represent", s2_file, "--mode", "overlap"]) == 1


def test_enumerate_outputs(tmp_path):
    out = tmp_path / "corpus"
    assert main(
        ["enumerate", "--max-size", "4", "--oracle", "--out", str(out)]
    ) == 0
    lines = (out / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 6
    for line in lines:
        json.loads(line)
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 7  # header + records
    report = json.loads((out / "implications.json").read_text())
    assert all(not item["violations"] for item in report["implications"])
    assert [item["table_oracle"] for item in report["oracle"]] == [1, 1, 1, 2]


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


def test_seed_flag_accepted_but_not_semantic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["sn", "--n", "2", "--seed", "7", "--out", str(a)]) == 0
    assert main(["sn", "--n", "2", "--seed", "8", "--out", str(b)]) == 0
    ca, cb = json.loads(a.read_text()), json.loads(b.read_text())
    ca["parameters"].pop("seed")
    cb["parameters"].pop("seed")
    ca["stats"] = cb["stats"] = None
    strip = lambda c: json.dumps(
        {**c, "entries": [{k: v for k, v in e.items() if k != "stats"} for e in c["entries"]]},
        sort_keys=True,
    )
    assert strip(ca) == strip(cb)


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


@pytest.mark.parametrize("value", ["abc", "0", "-4"])
def test_bad_width_cap_setting_is_input_error(monkeypatch, capsys, value):
    monkeypatch.setenv("CONTACTLAB_WIDTH_CAP", value)
    assert main(["sn", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: CONTACTLAB_WIDTH_CAP")
    assert "Traceback" not in err
