"""The benchmark's three workloads as lists of timed operations.

An operation is one CLI command (``contactlab.cli.main(argv)``, in process)
or one library call.  Its ``check`` runs after the timer stops and returns
``None`` or a description of what is wrong; expectations come from
``reference`` and from theorems, never from the program's own answers.
Functions are looked up on their modules at call time so that the tracer's
wrappers are seen.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import contactlab
import contactlab.cli
from contactlab.axioms import Witness
from contactlab.serialize import load_structure_file

import reference
from reference import Structure


@dataclass
class Op:
    name: str
    group: str  # the per-workload timing metric it counts towards
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return contactlab.cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _verify_op(path: Path) -> Op:
    return Op(
        f"verify-certificate {path.name}",
        "verify",
        partial(cli, ["verify-certificate", str(path)]),
        lambda rc: None if rc == 0 else f"exit {rc}",
    )


def _first_problem(*problems: str | None) -> str | None:
    return next((p for p in problems if p), None)


# ---------------------------------------------------------------------------
# separator: sn --n 2..4 with certificates, then the library pipeline at n = 5


def _check_sn(n: int, path: Path, rc: int) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    cert = json.loads(path.read_text(encoding="utf-8"))
    entries = cert["entries"]
    facts = {e["fact"]: e["value"] for e in entries if e["kind"] == "fact"}
    expected_facts = {
        "ground_size": 1 << n,
        "carrier_size": len(reference.separator_carrier(n)),
        "atom_count": 2 * n + 2,
        "noncontact_pair_count": n,
    }
    d2 = {
        e["params"]["n"]: e for e in entries if e["kind"] == "axiom" and e["axiom"] == "d2"
    }
    d1 = [e["verdict"] for e in entries if e["kind"] == "axiom" and e["axiom"] == "d1"]
    checks = [e for e in entries if e["kind"] == "witness-check"]
    structure = Structure.from_json(cert["structure"])
    return _first_problem(
        facts != expected_facts and f"facts {facts}, expected {expected_facts}",
        d1 != ["pass"] and f"d1 verdicts {d1}",
        sorted(d2) != list(range(1, n + 1)) and f"d2 levels {sorted(d2)}",
        any(d2[m]["verdict"] != "pass" for m in range(1, n) if m in d2)
        and "d2 fails below level n",
        n in d2 and d2[n]["verdict"] != "fail" and "d2 passes at level n",
        n in d2
        and d2[n]["witness"] is not None
        and not reference.witness_holds(structure, "d2", d2[n]["witness"])
        and "level-n d2 witness does not violate d2",
        not (checks and all(e["valid"] for e in checks))
        and "designated witness not revalidated",
        cert["conclusion"]["ok"] is not True and "conclusion.ok is not true",
    )


class _SeparatorFive:
    """The README's library pipeline on the level-5 separator."""

    N = 5

    def __init__(self) -> None:
        self.sep: Any = None
        self.carrier = reference.separator_carrier(self.N)

    def reference_structure(self) -> Structure:
        lattice = self.sep.structure.lattice
        return Structure(lattice.width, list(lattice.carrier), list(self.sep.structure.contact.rows))

    def build(self) -> Any:
        self.sep = contactlab.build_separator(self.N)
        return self.sep

    def check_build(self, sep: Any) -> str | None:
        s = self.reference_structure()
        return _first_problem(
            len(s.carrier) != len(self.carrier)
            and f"carrier size {len(s.carrier)}, expected {len(self.carrier)}",
            len(reference.atoms(s.carrier)) != 2 * self.N + 2 and "atom count",
            len(s.noncontact()) != self.N and "non-contact pair count",
        )

    def cs(self) -> Any:
        return self.sep.structure

    def ops(self) -> list[Op]:
        cs = self.cs
        return [
            Op("build_separator(5)", "sep5", self.build, self.check_build),
            Op(
                "check_d1",
                "sep5",
                lambda: contactlab.check_d1(cs()),
                lambda v: None if v.passed else "d1 fails on the separator",
            ),
            Op(
                "check_d2(n=5)",
                "sep5",
                lambda: contactlab.check_d2(cs(), self.N),
                self.check_d2,
            ),
            Op(
                "revalidate_witness",
                "sep5",
                lambda: contactlab.revalidate_witness(
                    cs(), "d2", {"n": self.N}, self.sep.expected_d2_witness()
                ),
                self.check_designated,
            ),
            Op(
                "decide_weak_representable",
                "sep5",
                lambda: contactlab.decide_weak_representable(cs()),
                self.check_representation,
            ),
        ]

    def check_d2(self, verdict: Any) -> str | None:
        if verdict.passed:
            return "d2 passes at level 5"
        if not reference.witness_holds(
            self.reference_structure(), "d2", verdict.witness.to_json()
        ):
            return "d2 witness does not violate d2"
        return None

    def check_designated(self, valid: Any) -> str | None:
        witness = self.sep.expected_d2_witness().to_json()
        return _first_problem(
            valid is not True and "designated witness rejected",
            not reference.witness_holds(self.reference_structure(), "d2", witness)
            and "designated witness does not violate d2",
        )

    def check_representation(self, rep: Any) -> str | None:
        images = getattr(rep, "images", None)
        if images is None:
            return f"refused: {rep}"
        if not reference.representation_holds(self.reference_structure(), list(images), "weak"):
            return "representation invalid"
        return None


def separator(work: Path, seed: int) -> list[Op]:
    ops = []
    for n in (2, 3, 4):
        path = work / f"sn{n}.json"
        ops.append(
            Op(
                f"sn --n {n}",
                "sn",
                partial(cli, ["sn", "--n", str(n), "--out", str(path)]),
                partial(_check_sn, n, path),
            )
        )
        ops.append(_verify_op(path))
    return ops + _SeparatorFive().ops()


# ---------------------------------------------------------------------------
# corpus: every weak-contact semilattice up to carrier size 7

CORPUS_MAX_SIZE = 7


def _check_corpus(out: Path, rc: int) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    carriers: dict[int, set[tuple[str, ...]]] = {}
    classes = 0
    with open(out / "corpus.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            classes += 1
            carriers.setdefault(record["size"], set()).add(
                tuple(record["structure"]["carrier"])
            )
    lattices = tuple(len(carriers.get(k, ())) for k in range(1, CORPUS_MAX_SIZE + 1))
    implications = json.loads((out / "implications.json").read_text(encoding="utf-8"))
    violated = [i["name"] for i in implications["implications"] if i["violations"]]
    return _first_problem(
        lattices != reference.A006966
        and f"lattices per size {lattices}, OEIS A006966 gives {reference.A006966}",
        classes != reference.CORPUS_CLASSES_UP_TO_7
        and f"{classes} classes, expected {reference.CORPUS_CLASSES_UP_TO_7}",
        violated and f"implications violated: {violated}",
    )


def corpus(work: Path, seed: int) -> list[Op]:
    out = work / "corpus"
    argv = [
        "enumerate", "--max-size", str(CORPUS_MAX_SIZE), "--depth", "3",
        "--threads", "1", "--out", str(out),
    ]
    return [Op("enumerate", "enumerate", partial(cli, argv), partial(_check_corpus, out))]


# ---------------------------------------------------------------------------
# decide: seeded structures through check / represent / verify-certificate

FULL_SCAN = 2
EARLY_FAIL = 3
FULL_SCAN_PAIRS = 10
EARLY_FAIL_MAX_PAIRS = 6


def _draw_carrier(rng: random.Random, widths: tuple[int, ...], counts: tuple[int, ...]):
    width = rng.choice(widths)
    gens = rng.sample(range(1, 1 << width), rng.choice(counts))
    return width, reference.closure(gens)


def _noncontact_count(carrier: list[int]) -> int:
    """Non-overlapping nonzero pairs, counted through atoms (fast screen)."""
    atom_masks = [carrier[i] for i in reference.atoms(carrier)]
    below = [sum(1 << k for k, a in enumerate(atom_masks) if a & ~x == 0) for x in carrier]
    return sum(
        1
        for i in range(1, len(carrier))
        for j in range(i + 1, len(carrier))
        if not below[i] & below[j]
    )


def full_scan_structure(rng: random.Random) -> Structure:
    """Overlap contact, exactly ten non-contact pairs, passing d1, so the
    pair-subset searches of d2all and d2minus run to the end.

    Among join closures of 3-6 random subsets of a width-4 or width-5
    ground set, the only such structures found (2 in 100,000 draws) had
    width 5 and six generators, so draws are made in that shape.
    """
    while True:
        width, carrier = _draw_carrier(rng, (5,), (6,))
        if _noncontact_count(carrier) != FULL_SCAN_PAIRS:
            continue
        s = Structure.from_pairs(width, carrier, reference.overlap_related(carrier))
        if reference.d1_holds(s):
            return s


def early_fail_structure(rng: random.Random) -> Structure:
    """Overlap contact plus an up-closed set of extra pairs, failing add or
    d1, with at most six non-contact pairs left so every search is short."""
    while True:
        width, carrier = _draw_carrier(rng, (4, 5), (3, 4, 5, 6))
        related = reference.overlap_related(carrier)
        s = Structure.from_pairs(width, carrier, related)
        pairs = s.noncontact()
        if len(pairs) < 2:
            continue
        extra = reference.up_close(carrier, related, rng.sample(pairs, rng.choice((1, 2))))
        s = Structure.from_pairs(width, carrier, extra)
        left = len(s.noncontact())
        if 1 <= left <= EARLY_FAIL_MAX_PAIRS and not (
            reference.d1_holds(s) and reference.additive_holds(s)
        ):
            return s


def powerset4() -> Structure:
    carrier = list(range(16))
    return Structure.from_pairs(4, carrier, reference.overlap_related(carrier))


class _DecideFile:
    """One structure file and the checks of every operation on it."""

    def __init__(self, work: Path, name: str, s: Structure) -> None:
        self.work = work
        self.name = name
        self.s = s
        self.path = work / f"{name}.json"
        self.path.write_text(json.dumps(s.to_json(), indent=1), encoding="utf-8")
        self.d1 = reference.d1_holds(s)
        self.additive = reference.additive_holds(s)
        self.d2all: bool | None = None  # this pass's d2all verdict
        self.cs = load_structure_file(str(self.path))[0]

    def _cert(self, tag: str) -> Path:
        return self.work / f"{self.name}.{tag}.cert.json"

    def check(self, axiom: str, level: int | None = None) -> list[Op]:
        tag = axiom if level is None else f"{axiom}{level}"
        cert = self._cert(tag)
        argv = ["check", str(self.path), axiom, "--out", str(cert)]
        if level is not None:
            argv += ["--n", str(level)]
        op = Op(
            f"check {self.name} {tag}",
            "check",
            partial(cli, argv),
            partial(self._check_verdict, axiom, level, cert),
        )
        return [op, _verify_op(cert)]

    def represent(self, mode: str) -> list[Op]:
        cert = self._cert(mode)
        argv = ["represent", str(self.path), "--mode", mode, "--out", str(cert)]
        op = Op(
            f"represent {self.name} {mode}",
            "represent",
            partial(cli, argv),
            partial(self._check_representation, mode, cert),
        )
        return [op, _verify_op(cert)]

    def _expected(self, axiom: str) -> bool | None:
        if axiom == "d1":
            return self.d1
        if axiom == "add":
            return self.additive
        if axiom == "d2minus" and self.d1:
            return True  # d1 implies d2minus
        if self.name == "p4":
            return True  # a powerset with overlap contact satisfies every axiom
        return None

    def _check_verdict(self, axiom: str, level: int | None, cert: Path, rc: int) -> str | None:
        entry = json.loads(cert.read_text(encoding="utf-8"))["entries"][0]
        passed = entry["verdict"] == "pass"
        expected = self._expected(axiom)
        if axiom == "d2all":
            self.d2all = passed
        problem = _first_problem(
            rc != (0 if passed else 1) and f"exit {rc} with verdict {entry['verdict']}",
            expected is not None and passed != expected
            and f"verdict {entry['verdict']}, reference expects {'pass' if expected else 'fail'}",
        )
        if problem or passed:
            return problem
        witness = entry["witness"]
        params = {} if level is None else {"n": level}
        return _first_problem(
            not reference.witness_holds(self.s, axiom, witness)
            and "witness does not violate the axiom",
            not contactlab.revalidate_witness(self.cs, axiom, params, Witness.from_json(witness))
            and "witness rejected by revalidate_witness",
        )

    def _check_representation(self, mode: str, cert: Path, rc: int) -> str | None:
        entry = json.loads(cert.read_text(encoding="utf-8"))["entries"][0]
        success = entry["outcome"] == "success"
        # weak-representable iff d1; overlap-representable iff d1 and d2all
        expected = self.d1 if mode == "weak" else self.d1 and self.d2all
        problem = _first_problem(
            rc != (0 if success else 1) and f"exit {rc} with outcome {entry['outcome']}",
            success != expected and f"outcome {entry['outcome']}, expected the opposite",
        )
        if problem or not success:
            return problem
        images = [int(h, 16) for h in entry["payload"]["images"]]
        if not reference.representation_holds(self.s, images, mode):
            return "representation invalid"
        return None


def decide(work: Path, seed: int) -> list[Op]:
    rng = random.Random(seed)
    structures = [(f"full{i}", full_scan_structure(rng)) for i in range(FULL_SCAN)]
    structures += [(f"early{i}", early_fail_structure(rng)) for i in range(EARLY_FAIL)]
    ops: list[Op] = []
    for name, s in structures:
        f = _DecideFile(work, name, s)
        for axiom in ("d1", "add", "d2all", "d2minus"):
            ops += f.check(axiom)
        ops += f.represent("weak") + f.represent("overlap")
    # P(4) has 25 non-contact pairs; only the bounded levels finish.
    p4 = _DecideFile(work, "p4", powerset4())
    ops += p4.check("d2", 3) + p4.check("d1plus", 3)
    return ops


WORKLOADS = {"separator": separator, "corpus": corpus, "decide": decide}

