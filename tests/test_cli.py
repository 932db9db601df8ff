"""CLI surface: exit codes, certificates, corpus files, DOT output."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import contactlab
import scan_oracles
from contactlab import constructions
from contactlab import certificates
from contactlab.certificates import verify_certificate
from contactlab import cli
from contactlab.cli import main
from contactlab.core import WIDTH_CAP, ContactStructure, contact_all_except
from contactlab.serialize import (
    canonical_dumps,
    load_structure_file,
    mask_to_hex,
    matches_canonical_construction,
    structure_from_json,
    structure_to_json,
)


@pytest.fixture(scope="module")
def s2_file(tmp_path_factory):
    from contactlab.constructions import build_separator

    sep = build_separator(2)
    path = tmp_path_factory.mktemp("structures") / "s2.json"
    scan_oracles.write_structure_file(str(path), sep.structure, sep.roles)
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
    # sn has no --depth: it always checks levels 1..n.
    for depth in ("0", "1", "2", "3"):
        with pytest.raises(SystemExit) as exc:
            main(["sn", "--n", "2", "--depth", depth])
        assert exc.value.code == 2


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


def test_corpus_bytes_are_pinned(tmp_path, capsys):
    # The corpus files to size 7, byte for byte: what a profile skips (d2
    # level 1 on a weak contact, the d2minus search) must not move a byte.
    # The pins are the earlier files less the d1+ flags per level, which
    # repeated d1: the profile's "d1_plus", provenance "d1_plus_max", the
    # d1plus_k columns and the "d1-implies-d1plus" implication.
    out = tmp_path / "seven"
    argv = ["enumerate", "--max-size", "7", "--depth", "3", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("558 structure classes up to size 7\n")
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("corpus.jsonl", "summary.csv", "implications.json")
    }
    assert digests == {
        "corpus.jsonl": "f682e510392b04638af9ddce376ae515b9e1fadc34e8ed5e3fb5c0a03fd3ebc3",
        "summary.csv": "e09c7a3697eea7fd137457d442d9b0e8bef477b08b663a0b8225478a5e00beef",
        "implications.json": "15a021a19e832040eda09a2acf8d42abc4da0e2c33ac46eb0b26554d165a1df8",
    }
    # The records without their keys, sorted by structure: a change of key
    # definition may move the keys and the order within each size, and
    # nothing else.
    lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        del record["key"]
    records.sort(key=lambda record: json.dumps(record["structure"], sort_keys=True))
    stripped = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    assert hashlib.sha256(stripped.encode()).hexdigest() == (
        "2b8efd95ef9ea374c737703e4f1f55b49a45d4dc6f5fe7c3dc545df5706e14b5"
    )


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


def test_enumerate_depth_bounded_by_pair_count_cap(tmp_path, capsys):
    # No carrier within the size cap has more than C(8, 2) = 28 nonzero
    # unrelated pairs, and deeper levels only repeat the level below.
    argv = ["enumerate", "--max-size", "2", "--out", str(tmp_path / "deep")]
    _assert_input_error(argv + ["--depth", "29"], capsys)
    assert main(argv + ["--depth", "28"]) == 0
    header = (tmp_path / "deep" / "summary.csv").read_text().splitlines()[0]
    assert header.split(",")[-5] == "d2_28"


@pytest.mark.parametrize(
    "caps", [["--max-size", "10"], ["--max-size", "2", "--depth", "29"]]
)
def test_enumerate_past_a_cap_writes_nothing(tmp_path, capsys, caps):
    out = tmp_path / "d"
    _assert_input_error(["enumerate", *caps, "--out", str(out)], capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sn", "--n", "2"],
        ["check", "S2", "d1"],
        ["represent", "S2", "--mode", "weak"],
        ["enumerate", "--max-size", "2"],
        ["export-dot", "S2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_a_usage_error(argv, s2_file, tmp_path, capsys):
    # enumerate's --out is an existing file, which mkdir refuses; the other
    # targets sit in a directory that does not exist.
    existing = tmp_path / "file"
    existing.write_text("")
    out = existing if argv[0] == "enumerate" else tmp_path / "no" / "such" / "x.json"
    argv = [s2_file if arg == "S2" else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["sn", "--n", "3"], ""),
        (["sn", "--n", "3"], "1"),
        (["--help"], ""),
        (["--help"], "1"),
        (["--version"], ""),
        (["--version"], "1"),
    ],
    ids=[
        "buffered",
        "unbuffered",
        "help-buffered",
        "help-unbuffered",
        "version-buffered",
        "version-unbuffered",
    ],
)
def test_closed_stdout_is_an_output_error(argv, unbuffered):
    # The read end closes before the child writes: buffered, the write
    # fails at the flush; unbuffered, at the first print. --help and
    # --version print from inside argparse, which drops a failed write.
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(contactlab.__file__))
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "contactlab.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
                "PYTHONUNBUFFERED": unbuffered,
            },
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: cannot write standard output: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


def _out_argv(command, s2_file, tmp_path):
    """The argv of one ``--out`` writer, without its ``--out``."""
    if command == "export-dot":
        cert = tmp_path / "rep.json"
        assert main(["represent", s2_file, "--mode", "weak", "--out", str(cert)]) == 0
        return ["export-dot", str(cert)]
    return {
        "sn": ["sn", "--n", "2"],
        "check": ["check", s2_file, "d2", "--n", "2"],
        "represent": ["represent", s2_file, "--mode", "weak"],
        "enumerate": ["enumerate", "--max-size", "3"],
    }[command]


ENUMERATE_FILES = ("corpus.jsonl", "summary.csv", "implications.json")


@pytest.mark.parametrize(
    "command", ["sn", "check", "represent", "export-dot", "enumerate"]
)
def test_overwriting_a_longer_file_gives_the_bytes_of_a_fresh_write(
    command, s2_file, tmp_path, monkeypatch
):
    # A still clock makes the certificates' elapsed_s repeat.
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    argv = _out_argv(command, s2_file, tmp_path)
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    if command == "enumerate":
        code = main(argv + ["--out", str(fresh)])
        names = ENUMERATE_FILES
    else:
        fresh.mkdir()
        code = main(argv + ["--out", str(fresh / "out")])
        names = ("out",)
    stale.mkdir()
    for name in names:
        size = (fresh / name).stat().st_size
        (stale / name).write_bytes(b"stale tail\n" * (size // 11 + 100))
    target = stale if command == "enumerate" else stale / "out"
    assert main(argv + ["--out", str(target)]) == code
    for name in names:
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()


def test_out_to_a_device_is_written_without_the_cut(capsys):
    # ftruncate on a character device fails, so the cut must be skipped.
    assert main(["sn", "--n", "2", "--out", os.devnull]) == 0
    assert capsys.readouterr().out.endswith(f"certificate written to {os.devnull}\n")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_new_out_file_gets_the_mode_open_gives(umask, tmp_path):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        assert main(["sn", "--n", "2", "--out", str(tmp_path / "cert.json")]) == 0
        assert main(["enumerate", "--max-size", "2", "--out", str(tmp_path / "d")]) == 0
    finally:
        os.umask(previous)
    expected = (tmp_path / "reference").stat().st_mode
    assert (tmp_path / "cert.json").stat().st_mode == expected
    for name in ENUMERATE_FILES:
        assert (tmp_path / "d" / name).stat().st_mode == expected


@pytest.mark.parametrize(
    "error",
    [
        RuntimeError("boom"),
        KeyboardInterrupt(),
        OSError(errno.ENOSPC, "No space left on device"),
    ],
    ids=["runtime-error", "keyboard-interrupt", "os-error"],
)
def test_failure_part_way_through_the_corpus_leaves_no_stale_tail(
    error, tmp_path, monkeypatch, capsys
):
    fresh = tmp_path / "fresh"
    assert main(["enumerate", "--max-size", "3", "--out", str(fresh)]) == 0
    written = "".join(
        fresh.joinpath("corpus.jsonl").read_text(encoding="utf-8").splitlines(True)[:2]
    )

    class Failing:
        def to_json(self):
            raise error

    real = cli.classify_corpus
    monkeypatch.setattr(
        cli, "classify_corpus", lambda *a: [*real(*a)[:2], Failing()]
    )
    out = tmp_path / "stale"
    out.mkdir()
    (out / "corpus.jsonl").write_text("stale tail\n" * 1000, encoding="utf-8")
    capsys.readouterr()
    argv = ["enumerate", "--max-size", "3", "--out", str(out)]
    if isinstance(error, OSError):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No space left on device\n"
        )
    else:
        with pytest.raises(type(error)):
            main(argv)
    assert (out / "corpus.jsonl").read_text(encoding="utf-8") == written


def test_a_write_past_the_file_size_limit_leaves_no_stale_tail(tmp_path):
    # A child whose RLIMIT_FSIZE stops corpus.jsonl (8,198 bytes to size 5,
    # past one 8 KiB buffer) three bytes short, over a 110 KB file: the
    # final flush fails with EFBIG, and the file is still cut after the
    # last byte that reached it.
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(contactlab.__file__))
    )
    argv = ["enumerate", "--max-size", "5", "--out"]
    assert main(argv + [str(tmp_path / "fresh")]) == 0
    fresh = (tmp_path / "fresh" / "corpus.jsonl").read_bytes()
    limit = len(fresh) - 3
    assert limit > 8192
    out = tmp_path / "stale"
    out.mkdir()
    (out / "corpus.jsonl").write_bytes(b"stale tail\n" * 10_000)
    child = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
        "from contactlab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child, *argv, str(out)],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": package_root,
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: cannot write {out}: File too large\n"
    assert (out / "corpus.jsonl").read_bytes() == fresh[:limit]


def test_out_files_are_never_truncated_on_open(tmp_path, monkeypatch):
    # Every --out file goes through os.open without O_TRUNC and is cut once,
    # at its final length: Path.write_text or open(..., "w") would truncate
    # on open, and would not show up here as an os.open of the target.
    cert = tmp_path / "cert.json"
    corpus = tmp_path / "corpus"
    assert main(["sn", "--n", "2", "--out", str(cert)]) == 0
    assert main(["enumerate", "--max-size", "3", "--out", str(corpus)]) == 0
    opened, cuts = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        opened.append((os.fspath(path), flags, fd))
        return fd

    def spy_ftruncate(fd, length):
        cuts.append((fd, length))
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    assert main(["sn", "--n", "3", "--out", str(cert)]) == 0
    assert main(["enumerate", "--max-size", "2", "--out", str(corpus)]) == 0
    monkeypatch.undo()

    assert not [call for call in opened if call[1] & os.O_TRUNC]
    assert not [cut for cut in cuts if cut[1] == 0]
    targets = [str(cert)] + [str(corpus / name) for name in ENUMERATE_FILES]
    written = [(path, fd) for path, flags, fd in opened if flags & os.O_WRONLY]
    assert [path for path, _ in written] == targets
    assert cuts == [(fd, os.stat(path).st_size) for path, fd in written]


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


def _sn_certificate(tmp_path, n):
    out = tmp_path / f"sn{n}.json"
    assert main(["sn", "--n", str(n), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_verify_certificate_requires_every_sn_entry(tmp_path, capsys):
    cert = _sn_certificate(tmp_path, 2)
    keys = certificates.sn_entry_keys(2)
    assert len(cert["entries"]) == len(keys) == 14
    for pos, (kind, name, params, _expected) in enumerate(keys):
        dropped = json.loads(json.dumps(cert))
        entry = dropped["entries"].pop(pos)
        assert (entry["kind"], entry.get("params", {})) == (kind, params)
        problems = verify_certificate(dropped)
        assert len(problems) == 1, (pos, problems)
        assert problems[0].startswith(f"missing {kind} entry {name}"), problems
        path = tmp_path / f"dropped{pos}.json"
        path.write_text(json.dumps(dropped))
        capsys.readouterr()
        assert main(["verify-certificate", str(path)]) == 1
        assert capsys.readouterr().out == problems[0] + "\n"


def test_verify_certificate_refuses_a_separator_without_its_level_n_failure(tmp_path):
    # The d2 failure at level 3 and its witness check deleted: the remaining
    # entries all meet their expectations, so conclusion.ok still holds.
    cert = _sn_certificate(tmp_path, 3)
    cert["entries"] = [
        e
        for e in cert["entries"]
        if not (e["kind"] == "witness-check" or e.get("params") == {"n": 3})
    ]
    assert certificates.conclusion_ok(cert["entries"]) is cert["conclusion"]["ok"] is True
    assert verify_certificate(cert) == [
        'missing axiom entry d2 {"n": 3}',
        'missing witness-check entry d2 {"n": 3}',
    ]


def test_verify_certificate_refuses_empty_entries(s2_file, tmp_path, capsys):
    runs = {
        "sn": (["sn", "--n", "2"], 14),
        "check": (["check", s2_file, "d2", "--n", "2"], 1),
        "represent": (["represent", s2_file, "--mode", "overlap"], 1),
    }
    for command, (argv, missing) in runs.items():
        out = tmp_path / f"{command}.json"
        main(argv + ["--out", str(out)])
        cert = json.loads(out.read_text())
        assert cert["command"] == command
        cert["entries"] = []
        cert["conclusion"]["ok"] = True
        problems = verify_certificate(cert)
        assert len(problems) == missing
        assert all(p.startswith("missing ") for p in problems)
        out.write_text(json.dumps(cert))
        capsys.readouterr()
        assert main(["verify-certificate", str(out)]) == 1
    check = json.loads((tmp_path / "check.json").read_text())
    assert verify_certificate(check) == ['missing axiom entry d2 {"n": 2}']
    represent = json.loads((tmp_path / "represent.json").read_text())
    assert verify_certificate(represent) == ["missing representation entry overlap"]


def test_verify_certificate_requires_the_named_axiom_and_mode(s2_file, tmp_path):
    for argv, key, other in (
        (["check", s2_file, "d1"], "axiom", "d2"),
        (["represent", s2_file, "--mode", "weak"], "mode", "overlap"),
    ):
        out = tmp_path / "cert.json"
        main(argv + ["--out", str(out)])
        cert = json.loads(out.read_text())
        cert["parameters"][key] = other
        kind = cert["entries"][0]["kind"]
        level = ' {"n": 1}' if other == "d2" else ""  # d2 keyed by its level
        assert verify_certificate(cert) == [f"missing {kind} entry {other}{level}"]


def test_verify_certificate_requires_each_expectation(s2_file, tmp_path, capsys):
    # The level-2 d2 fail recorded as expected, with the conclusion to
    # match: every recorded value re-derives and conclusion.ok agrees with
    # the entries, so only the expectation sn writes tells them apart.
    cert = _sn_certificate(tmp_path, 2)
    pos = next(
        pos for pos, e in enumerate(cert["entries"])
        if e["kind"] == "axiom" and e["params"] == {"n": 2}
    )
    cert["entries"][pos]["expected"] = "pass"
    cert["conclusion"]["ok"] = False
    line = f"entries[{pos}]: axiom d2 does not reproduce"
    assert verify_certificate(cert) == [line]
    path = tmp_path / "expects_pass.json"
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(path)]) == 1
    assert capsys.readouterr().out == line + "\n"
    # check and represent write no expectation.
    for argv, name in (
        (["check", s2_file, "d2", "--n", "2"], "axiom d2"),
        (["represent", s2_file, "--mode", "overlap"], "representation overlap"),
    ):
        out = tmp_path / "cert.json"
        main(argv + ["--out", str(out)])
        cert = json.loads(out.read_text())
        assert verify_certificate(cert) == []
        cert["entries"][0]["expected"] = "fail" if argv[0] == "check" else "refusal"
        cert["conclusion"]["ok"] = certificates.conclusion_ok(cert["entries"])
        assert verify_certificate(cert) == [f"entries[0]: {name} does not reproduce"]


def test_verify_certificate_refuses_an_unknown_mode(s2_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["represent", s2_file, "--mode", "overlap", "--out", str(out)])
    cert = json.loads(out.read_text())
    cert["parameters"]["mode"] = cert["entries"][0]["mode"] = "bogus"
    problems = verify_certificate(cert)
    assert len(problems) == 1 and problems[0].startswith("entries[0]: "), problems
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(out)]) == 1
    assert capsys.readouterr().out == problems[0] + "\n"


def test_level_on_an_axiom_without_levels_is_a_usage_error(s2_file, tmp_path, capsys):
    for axiom in ("weak-contact", "add", "d1", "d2minus", "d2all"):
        out = tmp_path / f"{axiom}.json"
        assert main(["check", s2_file, axiom, "--n", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()
    for axiom, level, code in (("d1plus", 3, 0), ("d2", 1, 0), ("d2", 2, 1)):
        out = tmp_path / f"{axiom}{level}.json"
        assert main(["check", s2_file, axiom, "--n", str(level), "--out", str(out)]) == code
        cert = json.loads(out.read_text())
        assert cert["parameters"] == {"axiom": axiom, "n": level}
        assert cert["entries"][0]["params"] == {"n": level}
        assert verify_certificate(cert) == []


@pytest.fixture(scope="module")
def s3_check_d2(tmp_path_factory):
    """``check s3.json d2 --n 2 --out``, s3 the ``sn --n 3`` structure: d2
    passes at level 2."""
    sep = constructions.build_separator(3)
    work = tmp_path_factory.mktemp("s3")
    scan_oracles.write_structure_file(str(work / "s3.json"), sep.structure, sep.roles)
    out = work / "c.json"
    assert main(["check", str(work / "s3.json"), "d2", "--n", "2", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize(
    "level, code, message",
    [
        (None, 2, "input error: parameters.n: expected a positive int level, got None\n"),
        (True, 2, "input error: parameters.n: expected a positive int level, got True\n"),
        (1.0, 2, "input error: parameters.n: expected a positive int level, got 1.0\n"),
        ("x", 2, "input error: parameters.n: expected a positive int level, got 'x'\n"),
        (1, 1, 'missing axiom entry d2 {"n": 1}\n'),
        (3, 1, 'missing axiom entry d2 {"n": 3}\n'),
        ("deleted", 1, 'missing axiom entry d2 {"n": 1}\n'),
    ],
    ids=["null", "true", "float", "string", "one", "three", "deleted"],
)
def test_check_certificate_verifies_its_level(
    s3_check_d2, tmp_path, capsys, level, code, message
):
    # Each of these verified while a check entry was keyed by its axiom
    # alone; an absent level is level 1, as ``check`` without --n writes.
    cert = json.loads(json.dumps(s3_check_d2))
    assert verify_certificate(cert) == []
    if level == "deleted":
        del cert["parameters"]["n"]
    else:
        cert["parameters"]["n"] = level
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(bad)]) == code
    captured = capsys.readouterr()
    assert (captured.err if code == 2 else captured.out) == message


def test_check_certificates_keep_verifying_with_a_level_an_axiom_ignores(s2_file, tmp_path):
    # Before --n on a levelless axiom became a usage error, check wrote
    # such certificates; their parameters.n is not read.
    cs, roles = load_structure_file(s2_file)
    for axiom in ("weak-contact", "add", "d1", "d2minus", "d2all"):
        entry = certificates.derive_entry(cs, {"kind": "axiom", "axiom": axiom, "params": {}})
        for level in (2, None, "x"):
            params = {"axiom": axiom, "n": level}
            cert = certificates.build_certificate("check", params, cs, roles, [entry], 0.0)
            assert verify_certificate(json.loads(canonical_dumps(cert))) == []
    for axiom, level in (("d1plus", None), ("d2", None), ("d2", 2)):
        params = {"n": level} if level else {}
        entry = certificates.derive_entry(cs, {"kind": "axiom", "axiom": axiom, "params": params})
        cert = certificates.build_certificate(
            "check", {"axiom": axiom, **params}, cs, roles, [entry], 0.0
        )
        assert verify_certificate(json.loads(canonical_dumps(cert))) == []


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda cert: cert.update(command="enumerate"), "command"),
        (lambda cert: cert.update(version=True), "version"),
        (lambda cert: cert.update(parameters=[2]), "parameters"),
        (lambda cert: cert["parameters"].update(n=True), "parameters.n"),
    ],
    ids=["unknown-command", "version-true", "parameters-not-an-object", "n-true"],
)
def test_verify_certificate_schema_errors(tmp_path, capsys, mutate, field):
    cert = _sn_certificate(tmp_path, 2)
    mutate(cert)
    out = tmp_path / "bad.json"
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    err = _assert_input_error(["verify-certificate", str(out)], capsys)
    assert err.startswith(f"input error: {field}:")


def test_check_refuses_boolean_indices_and_writes_no_certificate(s2_file, tmp_path, capsys):
    raw = json.loads(open(s2_file).read())
    for field, mutate in (
        ("ground_size", lambda d: d.update(ground_size=True)),
        ("roles['gen_1']", lambda d: d["roles"].update(gen_1=True)),
    ):
        payload = json.loads(json.dumps(raw))
        mutate(payload)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "cert.json"
        capsys.readouterr()
        err = _assert_input_error(["check", str(path), "d1", "--out", str(out)], capsys)
        assert err.startswith(f"input error: {field}:")
        assert not out.exists()


@pytest.mark.parametrize("zero", [False, 0.0], ids=["false", "float"])
def test_zero_must_be_the_int_zero(s2_file, tmp_path, capsys, zero):
    # Python's == takes false and 0.0 for 0; the file format has only ints.
    payload = json.loads(open(s2_file).read())
    payload["zero"] = zero
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "cert.json"
    capsys.readouterr()
    err = _assert_input_error(["check", str(path), "d1", "--out", str(out)], capsys)
    assert err.startswith("input error: zero:")
    assert not out.exists()


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
        got = matches_canonical_construction(raw, cs, sep.structure, sep.roles)
        assert got == expected, name


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
    return err


def test_check_and_represent_refuse_a_relation_that_is_not_a_weak_contact(
    tmp_path, capsys
):
    # The chain {0, 1, 3} with no contact at all: nonzero elements are not
    # in contact with themselves.
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "version": 1,
        "ground_size": 2,
        "carrier": ["0", "1", "3"],
        "zero": 0,
        "contact": [],
    }))
    capsys.readouterr()
    assert main(["check", str(path), "weak-contact"]) == 1
    capsys.readouterr()
    for argv in (
        ["check", str(path), "d1"],
        ["represent", str(path), "--mode", "weak"],
        ["represent", str(path), "--mode", "overlap"],
    ):
        _assert_input_error(argv, capsys)


def test_check_and_represent_refuse_a_separator_missing_one_contact_pair(
    tmp_path, capsys
):
    # The level-4 separator with (top - 1, top) also out of contact: the
    # file is symmetric and reflexive, as every structure file is, but the
    # row of top - 1 is not up-closed.  Every refusal names the first
    # violation of the pair-by-pair scan.
    sep = constructions.build_separator(4)
    cs = sep.structure
    top = cs.lattice.top
    noncontact = [*cs.contact.noncontact_pairs(), (top - 1, top)]
    bad = ContactStructure(cs.lattice, contact_all_except(cs.size, noncontact))
    path = tmp_path / "s4_dropped.json"
    scan_oracles.write_structure_file(str(path), bad, sep.roles)
    witness = scan_oracles.check_weak_contact(bad).witness
    assert witness.kind == "extension"
    capsys.readouterr()
    assert main(["check", str(path), "weak-contact"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "weak-contact: fail",
        f"witness: {json.dumps(witness.to_json(), sort_keys=True)}",
    ]
    refusal = (
        "input error: not a weak contact relation: extension violated at "
        f"{dict(witness.elements)}\n"
    )
    for argv in (["check", str(path), "d1"], ["represent", str(path), "--mode", "weak"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", refusal)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda cert: cert.update(entries=5),
        lambda cert: cert["entries"].append(3),
        lambda cert: cert.update(conclusion=[]),
        lambda cert: cert["entries"].append({"fact": "ground_size", "expected": 4}),
        lambda cert: cert["entries"].append({"kind": ["fact"], "fact": "ground_size"}),
    ],
    ids=["entries-not-a-list", "entry-not-an-object", "conclusion-not-an-object",
         "entry-without-kind", "kind-not-a-string"],
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


@pytest.mark.parametrize("column", [True, 1.0], ids=["bool", "float"])
def test_export_dot_refuses_a_column_that_is_not_an_int(s2_file, tmp_path, capsys, column):
    out = tmp_path / "rep.json"
    assert main(["represent", s2_file, "--mode", "weak", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["entries"][0]["payload"]["columns"] = [column]
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    err = _assert_input_error(["export-dot", str(out)], capsys)
    assert err == "input error: payload.columns: expected a list of ints\n"


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


def test_certificates_with_a_depth_parameter_still_verify(tmp_path):
    # Certificates written while --depth existed record parameters.depth,
    # and `--depth 3` on n = 2 wrote a d2 entry above n.
    out = tmp_path / "sn2.json"
    assert main(["sn", "--n", "2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert "depth" not in cert["parameters"]
    cert["parameters"]["depth"] = 3
    d2 = [e for e in cert["entries"] if e["kind"] == "axiom" and e["axiom"] == "d2"]
    assert [e["params"]["n"] for e in d2] == [1, 2]
    above = json.loads(json.dumps(d2[-1]))
    above["params"]["n"] = 3
    cert["entries"].insert(cert["entries"].index(d2[-1]) + 1, above)
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


def test_unreadable_json_is_an_input_error(tmp_path, capsys):
    # Bytes that are not UTF-8, and an unterminated run of brackets deeper
    # than the parser's recursion limit: exit 2 with "input error:", no
    # traceback, for every command that reads a JSON file.
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x7b")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1000)
    for path in (not_utf8, deep):
        for argv in (
            ["check", str(path), "d1"],
            ["represent", str(path), "--mode", "weak"],
            ["verify-certificate", str(path)],
            ["export-dot", str(path)],
        ):
            capsys.readouterr()
            _assert_input_error(argv, capsys)


def test_enumerate_workers_bounded_by_lattices_and_cpus(tmp_path, monkeypatch):
    # A stand-in pool records the worker count it is asked for and maps in
    # process, so a huge --threads value starts no process at all.
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    outputs = []
    for max_size, threads in ((4, 1), (4, 100000), (4, 2), (1, 100000)):
        out = tmp_path / f"s{max_size}t{threads}"
        argv = ["enumerate", "--max-size", str(max_size), "--threads", str(threads),
                "--out", str(out)]
        assert main(argv) == 0
        outputs.append((out / "corpus.jsonl").read_text())
    # Up to size 4 there are 5 lattices, so 100,000 threads ask for 3
    # workers (the CPUs) and 2 threads for 2; at size 1 there is one
    # lattice and no pool.
    assert asked == [3, 2]
    assert outputs[0] == outputs[1] == outputs[2]


def test_certificates_built_only_when_written(s2_file, tmp_path, capsys, monkeypatch):
    # Without --out the stdout and exit code are those of the same run with
    # --out, less the line naming the file, and no certificate is built.
    runs = [
        (["sn", "--n", "2"], 0),
        (["check", s2_file, "d1"], 0),
        (["check", s2_file, "d2", "--n", "2"], 1),
        (["represent", s2_file, "--mode", "weak"], 0),
        (["represent", s2_file, "--mode", "overlap"], 1),
    ]
    written = []
    for pos, (argv, code) in enumerate(runs):
        out = tmp_path / f"cert{pos}.json"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == code
        stdout = capsys.readouterr().out
        assert stdout.endswith(f"certificate written to {out}\n")
        written.append(stdout.removesuffix(f"certificate written to {out}\n"))
        assert verify_certificate(json.loads(out.read_text())) == []

    def refuse(*args):
        raise AssertionError("certificate built without --out")

    monkeypatch.setattr(cli, "build_certificate", refuse)
    for (argv, code), expected in zip(runs, written):
        assert main(argv) == code
        assert capsys.readouterr().out == expected
