"""contactlab benchmark: closed-loop, single process, one operation at a time.

Usage (from the root of a checkout):

    python3 bench/run.py --workload separator|corpus|decide \\
        --seed N --seconds S --trace 0|1

The program is imported from the checkout's ``src/`` and driven in process
through ``contactlab.cli.main(argv)`` and the library API.  One *pass* runs
every operation of the workload once, checking each output after its timer
stops; passes repeat until ``--seconds`` have elapsed (at least three), and
timings are medians over passes.  Each operation runs between two timings of
a fixed calibration loop, and reported times are calibrated to a reference
loop speed (``calibration.py``); raw medians are printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half, and prints
the per-layer metrics: self time per layer key, exact work counters, the
tracing overhead and the share of traced time the spans cover.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it name
every metric with its unit, including the per-workload timings that are not
part of the JSON result.  Run records, the span dump of traced runs and the
counter history go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 9

SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import calibration\n"
    "before = calibration.loop_seconds()\n"
    "t = time.perf_counter()\n"
    "import contactlab.cli\n"
    "elapsed = time.perf_counter() - t\n"
    "print(elapsed, before, calibration.loop_seconds())\n"
)


def import_program() -> None:
    """Import contactlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "contactlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no contactlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import contactlab

    if not Path(contactlab.__file__).resolve().is_relative_to(ROOT):
        raise SystemExit(f"error: contactlab imported from {contactlab.__file__}")


def setup_seconds() -> tuple[float, float]:
    """Median time of ``import contactlab.cli`` in a fresh interpreter,
    calibrated and raw.  One unmeasured import first, so compiled bytecode
    is in place."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
        )
        samples.append([float(x) for x in done.stdout.split()])
    samples = samples[1:]
    return (
        statistics.median(calibration.calibrated(*s) for s in samples),
        statistics.median(s[0] for s in samples),
    )


def source_digest(*directories: Path) -> str:
    digest = hashlib.sha256()
    for directory in directories:
        for path in sorted(directory.glob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_pass(ops, tracer=None) -> dict:
    """Run every operation once, each between two calibration loops.

    Returns calibrated seconds per group, raw seconds in total, and the
    failures."""
    times: dict[str, float] = {}
    raw = 0.0
    failures = []
    for number, op in enumerate(ops):
        before = calibration.loop_seconds()
        if tracer is not None:
            tracer.begin(number)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            result = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        after = calibration.loop_seconds()
        raw += elapsed
        times[op.group] = times.get(op.group, 0.0) + calibration.calibrated(
            elapsed, before, after
        )
        if isinstance(result, Exception):
            problem = f"raised {result!r}"
        else:
            try:
                problem = op.check(result)
            except Exception as exc:  # unreadable output fails the operation
                problem = f"check raised {exc!r}"
        if problem:
            failures.append(f"{op.name}: {problem}")
    return {"times": times, "raw": raw, "failures": failures}


def repeat(ops, seconds: float, minimum: int, tracer=None) -> list[dict]:
    """Passes until ``seconds`` have elapsed and at least ``minimum`` ran."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < minimum or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        gc.collect()  # garbage of the previous pass is not this pass's cost
        result = run_pass(ops, tracer)
        if tracer is not None:
            result["self"] = tracer.self_times()
            result["counts"] = dict(tracer.counts)
            result["covered"] = tracer.root_time()
            result["spans"] = tracer.spans
        passes.append(result)
    return passes


def median_of(passes, group: str) -> float:
    return statistics.median(p["times"].get(group, 0.0) for p in passes)


def wall_of(passes) -> float:
    return statistics.median(sum(p["times"].values()) for p in passes)


def layer_metrics(traced, untraced, per_layer: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and counter mismatches."""
    problems = []
    counts = traced[0]["counts"]
    for number, p in enumerate(traced[1:], start=1):
        if p["counts"] != counts:
            problems.append(f"counters of traced pass {number} differ from pass 0")
    values = {
        "trace.overhead_s": wall_of(traced) - wall_of(untraced),
        "trace.coverage": statistics.median(p["covered"] / p["raw"] for p in traced),
    }
    contacts = counts.get("enumeration.contacts", 0)
    values["enumeration.dedupe_ratio"] = (
        counts.get("enumeration.classes", 0) / contacts if contacts else 0.0
    )
    metrics = {}
    for spec in per_layer:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.endswith(".s"):
            value = statistics.median(p["self"].get(name[:-2], 0.0) for p in traced)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    unknown = sorted(set(counts) - {s["name"] for s in per_layer})
    if unknown:
        problems.append(f"counters missing from BENCHMARK.json: {unknown}")
    return metrics, problems


def check_counter_history(workload: str, seed: int, metrics: dict) -> str | None:
    """Counters must repeat exactly for the same program, benchmark,
    workload and seed."""
    counts = {
        name: m["value"] for name, m in metrics.items() if m["unit"] == "count"
    }
    digest = source_digest(SRC / "contactlab", BENCH)
    history = OUT / "counters" / f"{workload}-seed{seed}-{digest}.json"
    if history.is_file():
        before = json.loads(history.read_text(encoding="utf-8"))
        if before != counts:
            changed = sorted(k for k in counts if before.get(k) != counts[k])
            return f"counters differ from an earlier run of the same program: {changed}"
        return None
    history.parent.mkdir(parents=True, exist_ok=True)
    history.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    import workloads
    from tracer import Tracer, write_spans

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.WORKLOADS[args.workload](work, args.seed)

    problems: list[str] = []
    if args.trace:
        untraced = repeat(ops, args.seconds / 2, MIN_TRACED_PASSES)
        tracer = Tracer()
        tracer.install()
        try:
            traced = repeat(ops, args.seconds / 2, MIN_TRACED_PASSES, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics, problems = layer_metrics(traced, untraced, spec["per_layer"])
        mismatch = check_counter_history(args.workload, args.seed, metrics)
        if mismatch:
            problems.append(mismatch)
        write_spans(str(OUT / f"spans-{args.workload}.jsonl"), [p["spans"] for p in traced])
        extra = {}
    else:
        setup_s, raw_setup_s = setup_seconds()
        passes = repeat(ops, args.seconds, MIN_PASSES)
        values = {
            "wall_s": wall_of(passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        extra = {
            "raw_wall_s": {"value": statistics.median(p["raw"] for p in passes), "unit": "s"},
            "raw_setup_s": {"value": raw_setup_s, "unit": "s"},
        }
        extra |= {
            f"{group}_s": {"value": median_of(passes, group), "unit": "s"}
            for group in dict.fromkeys(op.group for op in ops)
        }
        if args.workload == "corpus":
            extra["classes_per_s"] = {
                "value": workloads.reference.CORPUS_CLASSES_UP_TO_7
                / extra["enumerate_s"]["value"],
                "unit": "1/s",
            }

    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    extra["failed_ops_ratio"] = {"value": len(failures) / attempted, "unit": "ratio"}
    correct = not failures and not problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256_16": source_digest(SRC / "contactlab"),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "passes": len(passes),
        "pass_seconds": [p["times"] for p in passes],
        "pass_raw_seconds": [p["raw"] for p in passes],
        "metrics": metrics,
        "workload_metrics": extra,
        "failures": failures[:20],
        "problems": problems,
    }
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"commit {record['commit']}, python {record['python']}, "
          f"nproc {record['nproc']}, PYTHONHASHSEED {record['PYTHONHASHSEED']}")
    for name, m in {**metrics, **extra}.items():
        print(f"{name} {m['value']} {m['unit']}")
    for line in failures[:20] + problems:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
