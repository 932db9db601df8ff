"""Command-line surface tying the modules into reproducible runs.

Exit codes: 0 when every asserted fact verifies (for ``sn`` that includes the
*expected* level-n failure occurring), 1 when a check legitimately fails, 2
on input or usage errors.

Every ``--out`` file is written through ``_output``: an existing file is
rewritten in place and then cut to the new length, never opened with
``O_TRUNC``.  The gain is on reruns into an existing, non-empty path: on
ext4 (with ``auto_da_alloc``, its default) closing a file that was truncated
to zero starts its writeback, which measured about 55 µs for a 300-byte
certificate and 242 µs for the 440 KB ``sn --n 4`` one, against 3.2 µs and
15.6 µs in place; a new file costs about the same either way.  A write that
fails inside the process (an exception, Ctrl-C included) leaves what was
written up to the failure and no stale tail.  A kill that runs no Python
cleanup (``SIGTERM``'s default, ``SIGKILL``) or a machine crash before
writeback can leave the new bytes followed by the old file's tail, where
``O_TRUNC`` could leave only a prefix of the new output.  A target that is
not a regular file, such as ``/dev/null``, is written without the cut.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import stat
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from . import __version__
from .axioms import CHECKERS, InvalidContactError, require_weak_contact
from .certificates import (
    SN_CERTIFICATE_CAP,
    build_certificate,
    certificate_entries,
    conclusion_ok,
    derive_entry,
    entry_matches_expectation,
    sn_entries,
    verify_certificate,
)
from .constructions import ConstructionError, build_separator
from .core import CapExceededError
from .enumeration import check_corpus_caps, classify_corpus, corpus_implications
from .representation import DECIDERS
from .serialize import (
    SchemaError,
    canonical_dumps,
    load_json_file,
    load_structure_file,
    representation_to_dot,
    structure_from_json,
    structure_to_dot,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class OutputError(Exception):
    """An ``--out`` target that cannot be created or written."""


@contextmanager
def _writing(out: str):
    """Turn an OSError raised while creating or writing ``out`` into an
    OutputError naming the path, which ``main`` reports as exit 2."""
    try:
        yield
    except OSError as exc:
        path = exc.filename or out
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextmanager
def _output(path: str | Path, newline: str | None = None):
    """A UTF-8 text handle on ``path``, created with mode 0o666 less the
    umask as ``open(path, "w")`` would, but never truncated on open: a
    regular file is cut after the last byte that reached it on the way out,
    also when the body or the final flush raises."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                try:
                    handle.flush()
                finally:
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_text(out: str, text: str) -> None:
    with _writing(out), _output(out) as handle:
        handle.write(text)


def _write_certificate(out: str | None, *parts) -> None:
    """Build the certificate from ``build_certificate``'s arguments and write
    it to ``out``; without ``--out`` nothing is built."""
    if out is None:
        return
    _write_text(out, canonical_dumps(build_certificate(*parts)))
    print(f"certificate written to {out}")


def _print_entries(entries: list[dict]) -> None:
    for entry in entries:
        kind = entry["kind"]
        if kind == "axiom":
            name = entry["axiom"]
            if entry["params"]:
                name += str(entry["params"])
            line = f"{name}: {entry['verdict']}"
        elif kind == "witness-check":
            line = f"designated witness [{entry['axiom']}]: " + (
                "revalidates" if entry["valid"] else "BROKEN"
            )
        elif kind == "representation":
            line = f"representation [{entry['mode']}]: {entry['outcome']}"
        else:
            line = f"{entry.get('fact')}: {entry.get('value')}"
        expected = entry.get("expected")
        if expected is not None:
            ok = entry_matches_expectation(entry)
            line += f"  [expected {expected}: {'ok' if ok else 'MISMATCH'}]"
        print(line)


def cmd_sn(args: argparse.Namespace) -> int:
    if args.n < 2:
        return _usage_error("the separator family starts at --n 2")
    if args.n > SN_CERTIFICATE_CAP:
        return _usage_error(
            f"full certificate generation is capped at n = {SN_CERTIFICATE_CAP}"
        )
    started = time.perf_counter()
    try:
        sep = build_separator(args.n)
    except ConstructionError as exc:
        print(f"construction invariant failed: {exc}", file=sys.stderr)
        return 1
    entries = sn_entries(sep)
    _print_entries(entries)
    ok = conclusion_ok(entries)
    print(f"sn --n {args.n}: {'all asserted facts verified' if ok else 'MISMATCH'}")
    _write_certificate(
        args.out, "sn", {"n": args.n}, sep.structure, sep.roles, entries, started
    )
    return 0 if ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    if args.n is not None and args.axiom not in ("d1plus", "d2"):
        return _usage_error(f"--n sets the level of d1plus and d2, not of {args.axiom}")
    started = time.perf_counter()
    cs, roles = load_structure_file(args.input)
    if args.axiom != "weak-contact":
        require_weak_contact(cs)
    params = {"n": args.n} if args.n is not None else {}
    entry = derive_entry(cs, {"kind": "axiom", "axiom": args.axiom, "params": params})
    _print_entries([entry])
    if entry["witness"] is not None:
        print(f"witness: {json.dumps(entry['witness'], sort_keys=True)}")
    _write_certificate(
        args.out, "check", {"axiom": args.axiom, **params}, cs, roles or None,
        [entry], started,
    )
    return 0 if entry["verdict"] == "pass" else 1


def cmd_represent(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cs, roles = load_structure_file(args.input)
    entry = derive_entry(cs, {"kind": "representation", "mode": args.mode})
    _print_entries([entry])
    if entry["outcome"] == "refusal":
        print(f"obstruction: {json.dumps(entry['payload'], sort_keys=True)}")
    _write_certificate(
        args.out, "represent", {"mode": args.mode}, cs, roles or None, [entry], started
    )
    return 0 if entry["outcome"] == "success" else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.max_size < 1:
        return _usage_error("--max-size must be at least 1")
    check_corpus_caps(args.max_size, args.depth)
    out_dir = Path(args.out)
    with _writing(args.out):
        out_dir.mkdir(parents=True, exist_ok=True)
    records = classify_corpus(args.max_size, args.depth, args.threads)

    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(…, sort_keys=True)
    with _writing(args.out), _output(out_dir / "corpus.jsonl") as handle:
        for record in records:
            handle.write(encode(record.to_json()) + "\n")

    with _writing(args.out), _output(out_dir / "summary.csv", newline="") as handle:
        writer = csv.writer(handle)
        header = ["key", "size", "noncontact_pairs", "weak_contact", "additive", "d1"]
        header += [f"d2_{i + 1}" for i in range(args.depth)]
        header += ["d2_minus", "d2_all", "weak_representable", "overlap_representable"]
        writer.writerow(header)
        for r in records:
            row = [
                r.key[:16],
                r.structure.size,
                len(r.structure.contact.noncontact_pairs()),
                r.profile.weak_contact,
                r.profile.additive,
                r.profile.d1,
            ]
            row += list(r.profile.d2)
            row += [
                r.profile.d2_minus,
                r.profile.d2_all,
                r.profile.weak_representable,
                r.profile.overlap_representable,
            ]
            writer.writerow(row)

    report = corpus_implications(records)
    _write_text(str(out_dir / "implications.json"), canonical_dumps({"implications": report}))

    print(f"{len(records)} structure classes up to size {args.max_size}")
    for item in report:
        status = "ok" if not item["violations"] else "VIOLATED"
        print(f"{item['name']}: {status} ({item['checked']} checked)")
    return 1 if any(item["violations"] for item in report) else 0


def cmd_verify_certificate(args: argparse.Namespace) -> int:
    problems = verify_certificate(load_json_file(args.input))
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print(f"{args.input}: all embedded checks reproduce")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    data = load_json_file(args.input)
    structure, payloads = data, []
    if isinstance(data, dict) and "entries" in data:
        structure = data.get("structure")
        payloads = [
            e.get("payload")
            for e in certificate_entries(data)
            if e["kind"] == "representation" and e.get("outcome") == "success"
        ]
    if payloads:
        dot = representation_to_dot(payloads[0])
    else:
        cs, roles = structure_from_json(structure)
        dot = structure_to_dot(cs, roles or None)
    if args.out:
        _write_text(args.out, dot)
        print(f"dot written to {args.out}")
    else:
        sys.stdout.write(dot)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (about 1.4 ms of
    argparse setup that every in-process ``main`` call would repeat)."""
    parser = argparse.ArgumentParser(
        prog="contactlab",
        description="Finite-model workbench for weak contact join-semilattices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sn = sub.add_parser("sn", help="build a level-n separator and certify its profile")
    sn.add_argument("--n", type=int, required=True)
    sn.add_argument("--out", default=None, help="certificate output path")
    sn.set_defaults(func=cmd_sn)

    check = sub.add_parser("check", help="run one axiom checker on a structure file")
    check.add_argument("input")
    check.add_argument("axiom", choices=sorted(CHECKERS))
    check.add_argument("--n", type=_positive_int, default=None, help="schema level")
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_check)

    rep = sub.add_parser("represent", help="decide powerset representability")
    rep.add_argument("input")
    rep.add_argument("--mode", choices=tuple(DECIDERS), required=True)
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_represent)

    enum = sub.add_parser("enumerate", help="classify all small contact semilattices")
    enum.add_argument("--max-size", type=int, required=True)
    enum.add_argument("--depth", type=_positive_int, default=3, help="d2 level bound")
    enum.add_argument("--out", required=True, help="output directory")
    enum.add_argument("--threads", type=_positive_int, default=1)
    enum.set_defaults(func=cmd_enumerate)

    verify = sub.add_parser("verify-certificate", help="re-derive an emitted certificate")
    verify.add_argument("input")
    verify.set_defaults(func=cmd_verify_certificate)

    dot = sub.add_parser("export-dot", help="render a structure or representation")
    dot.add_argument("input")
    dot.add_argument("--out", default=None)
    dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        shown = io.StringIO()
        try:
            with redirect_stdout(shown):
                args = parser.parse_args(argv)
        except SystemExit:
            # --help and --version print and exit inside parse_args, which
            # drops a failed write; their text is written here instead, so
            # a closed standard output is reported as for any command.
            sys.stdout.write(shown.getvalue())
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (SchemaError, InvalidContactError, CapExceededError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        return _usage_error(str(exc))
    except BrokenPipeError as exc:
        # A reader that closed early; the buffered rest goes to os.devnull,
        # so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _usage_error(f"cannot write standard output: {exc.strerror}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
