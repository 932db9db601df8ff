"""Command-line surface tying the modules into reproducible runs.

Exit codes: 0 when every asserted fact verifies (for ``sn`` that includes the
*expected* level-n failure occurring), 1 when a check legitimately fails, 2
on input or usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import __version__
from .axioms import (
    CHECKERS,
    InvalidContactError,
    check_d1,
    check_d2,
    require_weak_contact,
    revalidate_witness,
)
from .certificates import (
    axiom_entry,
    build_certificate,
    fact_entry,
    representation_entry,
    separator_entry,
    separator_extension_facts,
    verify_certificate,
    witness_check_entry,
)
from .constructions import ConstructionError, build_separator
from .core import CapExceededError, SettingError
from .enumeration import (
    TABLE_ORACLE_CAP,
    classify_corpus,
    corpus_implications,
    count_semilattice_tables,
    enumerate_semilattices,
)
from .representation import (
    Representation,
    decide_overlap_representable,
    decide_weak_representable,
)
from .serialize import (
    SchemaError,
    canonical_dumps,
    load_structure_file,
    representation_to_dot,
    structure_to_dot,
)

SN_CERTIFICATE_CAP = 4


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


def _write_certificate(cert: dict, out: str | None) -> None:
    if out is None:
        return
    Path(out).write_text(canonical_dumps(cert), encoding="utf-8")
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
            ok = (
                entry.get("verdict", entry.get("valid", entry.get("value")))
                == expected
            )
            line += f"  [expected {expected}: {'ok' if ok else 'MISMATCH'}]"
        print(line)


def cmd_sn(args: argparse.Namespace) -> int:
    if args.n < 2:
        return _usage_error("the separator family starts at --n 2")
    if args.n > SN_CERTIFICATE_CAP:
        return _usage_error(
            f"full certificate generation is capped at n = {SN_CERTIFICATE_CAP}"
        )
    depth = args.depth if args.depth is not None else args.n
    if depth < 1:
        return _usage_error("--depth must be at least 1")
    started = time.perf_counter()
    try:
        sep = build_separator(args.n)
    except ConstructionError as exc:
        print(f"construction invariant failed: {exc}", file=sys.stderr)
        return 1
    cs = sep.structure

    entries = [
        fact_entry("ground_size", cs.lattice.width),
        fact_entry("carrier_size", cs.size),
        fact_entry("atom_count", len(cs.lattice.atoms()), 2 * args.n + 2),
        fact_entry(
            "noncontact_pair_count", len(cs.contact.noncontact_pairs()), args.n
        ),
        axiom_entry(check_d1(cs), "pass"),
    ]
    for level in range(1, depth + 1):
        expected = "pass" if level < args.n else "fail"
        entries.append(axiom_entry(check_d2(cs, level), expected))
    if depth >= args.n:
        witness = sep.expected_d2_witness()
        entries.append(
            witness_check_entry(
                "d2",
                {"n": args.n},
                witness,
                revalidate_witness(cs, "d2", {"n": args.n}, witness),
            )
        )
    entries.append(separator_entry("matches_canonical_construction", True))
    for fact, value in separator_extension_facts(sep).items():
        entries.append(separator_entry(fact, value))

    cert = build_certificate(
        "sn",
        {"n": args.n, "depth": depth, "seed": args.seed},
        cs,
        sep.roles,
        entries,
        started,
    )
    _print_entries(entries)
    ok = cert["conclusion"]["ok"]
    print(f"sn --n {args.n}: {'all asserted facts verified' if ok else 'MISMATCH'}")
    _write_certificate(cert, args.out)
    return 0 if ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cs, roles = load_structure_file(args.input)
    if args.axiom != "weak-contact":
        require_weak_contact(cs)
    params = {"n": args.n} if args.n is not None else {}
    verdict = CHECKERS[args.axiom](cs, params)
    entries = [axiom_entry(verdict)]
    _print_entries(entries)
    if verdict.witness is not None:
        print(f"witness: {json.dumps(verdict.witness.to_json(), sort_keys=True)}")
    cert = build_certificate(
        "check",
        {"axiom": args.axiom, **params, "seed": args.seed},
        cs,
        roles or None,
        entries,
        started,
    )
    _write_certificate(cert, args.out)
    return 0 if verdict.passed else 1


def cmd_represent(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cs, roles = load_structure_file(args.input)
    require_weak_contact(cs)
    decide = (
        decide_weak_representable
        if args.mode == "weak"
        else decide_overlap_representable
    )
    result = decide(cs)
    if isinstance(result, Representation):
        result.validate(cs)
        outcome = "success"
        payload = result.to_json()
    else:
        outcome = "refusal"
        payload = result.to_json()
    entries = [representation_entry(args.mode, outcome, payload)]
    _print_entries(entries)
    if outcome == "refusal":
        print(f"obstruction: {json.dumps(payload, sort_keys=True)}")
    cert = build_certificate(
        "represent",
        {"mode": args.mode, "seed": args.seed},
        cs,
        roles or None,
        entries,
        started,
    )
    _write_certificate(cert, args.out)
    return 0 if outcome == "success" else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.max_size < 1:
        return _usage_error("--max-size must be at least 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = classify_corpus(
        args.max_size,
        d1_plus_max=args.depth,
        d2_max=args.depth,
        threads=args.threads,
    )

    with open(out_dir / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")

    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        header = ["key", "size", "noncontact_pairs", "weak_contact", "additive", "d1"]
        header += [f"d1plus_{i + 1}" for i in range(args.depth)]
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
            row += list(r.profile.d1_plus) + list(r.profile.d2)
            row += [
                r.profile.d2_minus,
                r.profile.d2_all,
                r.profile.weak_representable,
                r.profile.overlap_representable,
            ]
            writer.writerow(row)

    report = corpus_implications(records)
    failures = 0
    oracle_report = None
    if args.oracle:
        limit = min(args.max_size, TABLE_ORACLE_CAP)
        lattices = list(enumerate_semilattices(args.max_size))
        by_size: dict[int, int] = {}
        for lat in lattices:
            by_size[lat.size] = by_size.get(lat.size, 0) + 1
        oracle_report = []
        for size in range(1, limit + 1):
            expected = count_semilattice_tables(size)
            got = by_size.get(size, 0)
            oracle_report.append(
                {"size": size, "enumerated": got, "table_oracle": expected}
            )
            if got != expected:
                failures += 1

    with open(out_dir / "implications.json", "w", encoding="utf-8") as handle:
        payload = {"implications": report, "oracle": oracle_report}
        handle.write(canonical_dumps(payload))

    print(f"{len(records)} structure classes up to size {args.max_size}")
    for item in report:
        status = "ok" if not item["violations"] else "VIOLATED"
        print(f"{item['name']}: {status} ({item['checked']} checked)")
        failures += len(item["violations"])
    if oracle_report is not None:
        for item in oracle_report:
            print(
                f"size {item['size']}: {item['enumerated']} classes, "
                f"table oracle {item['table_oracle']}"
            )
    return 1 if failures else 0


def cmd_verify_certificate(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            cert = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{args.input} is not valid JSON: {exc}") from exc
    problems = verify_certificate(cert)
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print(f"{args.input}: all embedded checks reproduce")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{args.input} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "entries" in data:
        rep_entries = [
            e
            for e in data["entries"]
            if e.get("kind") == "representation" and e.get("outcome") == "success"
        ]
        if rep_entries:
            dot = representation_to_dot(rep_entries[0]["payload"])
        else:
            from .serialize import structure_from_json

            cs, roles = structure_from_json(data.get("structure"))
            dot = structure_to_dot(cs, roles or None)
    else:
        from .serialize import structure_from_json

        cs, roles = structure_from_json(data)
        dot = structure_to_dot(cs, roles or None)
    if args.out:
        Path(args.out).write_text(dot, encoding="utf-8")
        print(f"dot written to {args.out}")
    else:
        sys.stdout.write(dot)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactlab",
        description="Finite-model workbench for weak contact join-semilattices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sn = sub.add_parser("sn", help="build a level-n separator and certify its profile")
    sn.add_argument("--n", type=int, required=True)
    sn.add_argument("--depth", type=int, default=None, help="highest d2 level checked")
    sn.add_argument("--out", default=None, help="certificate output path")
    sn.add_argument("--seed", type=int, default=None, help="reserved; not semantic")
    sn.set_defaults(func=cmd_sn)

    check = sub.add_parser("check", help="run one axiom checker on a structure file")
    check.add_argument("input")
    check.add_argument("axiom", choices=sorted(CHECKERS))
    check.add_argument("--n", type=_positive_int, default=None, help="schema level")
    check.add_argument("--out", default=None)
    check.add_argument("--seed", type=int, default=None)
    check.set_defaults(func=cmd_check)

    rep = sub.add_parser("represent", help="decide powerset representability")
    rep.add_argument("input")
    rep.add_argument("--mode", choices=("weak", "overlap"), required=True)
    rep.add_argument("--out", default=None)
    rep.add_argument("--seed", type=int, default=None)
    rep.set_defaults(func=cmd_represent)

    enum = sub.add_parser("enumerate", help="classify all small contact semilattices")
    enum.add_argument("--max-size", type=int, required=True)
    enum.add_argument("--depth", type=_positive_int, default=3, help="d1+/d2 level bound")
    enum.add_argument("--oracle", action="store_true",
                      help="cross-check class counts against the table oracle")
    enum.add_argument("--out", required=True, help="output directory")
    enum.add_argument("--threads", type=_positive_int, default=1)
    enum.add_argument("--seed", type=int, default=None)
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
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, InvalidContactError, CapExceededError, SettingError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
