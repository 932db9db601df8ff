"""Self-contained check certificates and their re-verification.

A certificate embeds the structure it talks about, the checks that were run,
their verdicts and witnesses, and the command's expectations.  Every entry
has one derivation, ``derive_entry``, from its key (kind, name, params,
expectation, and a witness check's witness): ``sn``, ``check`` and
``represent`` write entries through it, and verification re-derives each
recorded entry through it from the embedded structure alone and compares
the whole entry, so a certificate can be audited without trusting the
process that wrote it.  Verification also requires every entry its command
writes, so none can be dropped, and re-derives each with the expectation
its command writes, not the recorded one.  Every int an entry records must
be a JSON integer, and every boolean it records a JSON boolean, each
refused by type before anything is compared; the conclusion must be an
object whose ``ok`` is a boolean.  A designated witness revalidates only
with its axiom's witness kind, exactly that kind's roles and, at level n, at
most n pairs (``axioms.revalidate_witness``).  A ``check`` entry of d1plus
or d2 is keyed by the certificate's level, ``parameters.n`` (1 when absent),
which must be a positive int.  Wall-clock stats are recorded but excluded
from comparison.

The embedded structure's text is written once, from the relation rows
(``serialize.structure_dumps``): its SHA-256 is taken of that text, and the
certificate embeds the same text.  Verification writes the text again from
the loaded rows and the payload's other fields.

Separator certificates carry facts about the minimal contact on the ambient
powerset, derived lazily for every n (``separator_extension_facts``).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable

from . import __version__
from .axioms import CHECKERS, Witness, revalidate_witness
from .constructions import (
    SeparatorStructure,
    ambient_extension_facts,
    build_separator,
)
from .core import ContactStructure
from .representation import DECIDERS, Representation
from .serialize import (
    SCHEMA_VERSION,
    CanonicalText,
    SchemaError,
    loaded_structure_dumps,
    matches_canonical_construction,
    structure_dumps,
    structure_from_json,
    structure_sha256,
)

# Largest separator level a certificate is written or re-derived for.
SN_CERTIFICATE_CAP = 6


def compute_fact(cs: ContactStructure, name: str) -> Any:
    if name == "carrier_size":
        return cs.size
    if name == "ground_size":
        return cs.lattice.width
    if name == "atom_count":
        return len(cs.lattice.atoms())
    if name == "noncontact_pair_count":
        return len(cs.contact.noncontact_pairs())
    raise ValueError(f"unknown structure fact {name!r}")


def separator_extension_facts(sep: SeparatorStructure) -> dict[str, bool]:
    """Contact-embedding and non-additivity facts about the ambient extension:
    the minimal contact extension (``min_contact_extension``) along the
    inclusion into the powerset of the ground set, never materialized.

    - The inclusion is an order embedding because ``leq`` is bit-subset on
      both sides, so the embedding criterion reduces to disjoint masks for
      every non-contact pair.
    - Lemma: the extension is the overlap relation joined with the up-closure
      of the images of the related source pairs.  For a symmetric, zero-free
      source and a zero-reflecting map that union is symmetric, zero-free,
      reflexive on nonzero elements and up-closed, so it is a weak contact
      whenever the source is one.  ``build_separator`` raises
      ``ConstructionError`` unless the source is a weak contact, so the fact
      holds without a second check.
    - Preservation, reflection and non-additivity are evaluated lazily by
      ``ambient_extension_facts``.
    """
    carrier = sep.structure.lattice.carrier
    lazy = ambient_extension_facts(sep)
    return {
        "extension_embedding_criterion": all(
            carrier[i] & carrier[j] == 0
            for i, j in sep.structure.contact.noncontact_pairs()
        ),
        "extension_weak_contact": True,
        "extension_preserves": lazy["preserves"],
        "extension_reflects": lazy["reflects"],
        "extension_nonadditive": lazy["nonadditive"],
    }


def derive_entry(
    cs: ContactStructure,
    entry: dict[str, Any],
    separator_facts: Callable[[], dict[str, bool]] | None = None,
) -> dict[str, Any]:
    """The entry that ``entry``'s key derives on ``cs``: its kind, name,
    params and expectation, and for a witness check the witness.  Every
    writer and the verifier derive entries here.  ``separator_facts`` gives
    the separator facts by name."""
    kind, expected = entry["kind"], entry.get("expected")
    params = entry.get("params", {})
    if kind == "axiom":
        derived = CHECKERS[entry["axiom"]](cs, params).to_json()
    elif kind == "witness-check":
        witness = Witness.from_json(entry["witness"])
        derived = {
            "axiom": entry["axiom"],
            "params": dict(params),
            "witness": witness.to_json(),
            "valid": revalidate_witness(cs, entry["axiom"], params, witness),
        }
        expected = True  # a designated witness is there to revalidate
    elif kind == "fact" or kind == "separator":
        name = entry["fact"]
        value = compute_fact(cs, name) if kind == "fact" else separator_facts()[name]
        derived = {"fact": name, "value": value}
    elif kind == "representation":
        mode = entry["mode"]
        result = DECIDERS[mode](cs)
        success = isinstance(result, Representation)
        if success:
            result.validate(cs)  # re-checked before it is reported
        derived = {
            "mode": mode,
            "outcome": "success" if success else "refusal",
            "payload": result.to_json(),
        }
    else:
        raise ValueError(f"unknown entry kind {kind!r}")
    return {"kind": kind, **derived, "expected": expected}


def entry_matches_expectation(entry: dict[str, Any]) -> bool:
    expected = entry.get("expected")
    if expected is None:
        return True
    if entry["kind"] == "axiom":
        return entry.get("verdict") == expected
    if entry["kind"] == "witness-check":
        return entry.get("valid") == expected
    return entry.get("value") == expected


def conclusion_ok(entries: list[dict[str, Any]]) -> bool:
    """Whether every entry meets its expectation: a certificate's conclusion."""
    return all(entry_matches_expectation(e) for e in entries)


# The entry field that names each kind's axiom, fact or mode.
_NAME_FIELD = {
    "axiom": "axiom",
    "witness-check": "axiom",
    "fact": "fact",
    "separator": "fact",
    "representation": "mode",
}


def _entry_name(entry: dict[str, Any]) -> Any:
    return entry.get(_NAME_FIELD.get(entry["kind"]))


def sn_entry_keys(n: int) -> list[tuple[str, str, dict[str, int], Any]]:
    """(kind, name, params, expected) of each entry ``sn --n <n>`` writes, in
    order, expecting what the paper proves of the level-n separator: d2
    fails at level n and nowhere below.  ``sn_entries`` writes these keys and
    ``verify_certificate`` requires each (kind, name, params)."""
    facts = {
        "ground_size": None,
        "carrier_size": None,
        "atom_count": 2 * n + 2,
        "noncontact_pair_count": n,
    }
    extension = "embedding_criterion weak_contact preserves reflects nonadditive"
    separator = ["matches_canonical_construction"]
    separator += [f"extension_{fact}" for fact in extension.split()]
    return [
        *(("fact", name, {}, value) for name, value in facts.items()),
        ("axiom", "d1", {}, "pass"),
        *(
            ("axiom", "d2", {"n": level}, "fail" if level == n else "pass")
            for level in range(1, n + 1)
        ),
        ("witness-check", "d2", {"n": n}, True),
        *(("separator", name, {}, True) for name in separator),
    ]


def sn_entries(sep: SeparatorStructure) -> list[dict[str, Any]]:
    """The entry of each ``sn_entry_keys(n)``; the designated witness goes
    with every key, and only the witness check reads it."""
    facts = {"matches_canonical_construction": True, **separator_extension_facts(sep)}
    witness = sep.expected_d2_witness().to_json()
    return [
        derive_entry(
            sep.structure,
            {
                "kind": kind,
                _NAME_FIELD[kind]: name,
                "params": params,
                "expected": expected,
                "witness": witness,
            },
            lambda: facts,
        )
        for kind, name, params, expected in sn_entry_keys(sep.n)
    ]


def build_certificate(
    command: str,
    parameters: dict[str, Any],
    cs: ContactStructure,
    roles: dict[str, int] | None,
    entries: list[dict[str, Any]],
    started: float,
) -> dict[str, Any]:
    """The certificate as a JSON object for ``canonical_dumps``.  Its
    structure is written once (``structure_dumps``): the SHA-256 is taken of
    that text, and ``canonical_dumps`` writes the same text in place."""
    text = structure_dumps(cs, roles)
    return {
        "version": SCHEMA_VERSION,
        "tool": f"contactlab {__version__}",
        "command": command,
        "parameters": parameters,
        "structure": CanonicalText(text),
        "structure_sha256": structure_sha256(text),
        "entries": entries,
        "conclusion": {"ok": conclusion_ok(entries)},
        "stats": {"elapsed_s": round(time.perf_counter() - started, 6)},
    }


# ---------------------------------------------------------------------------
# verification


def certificate_entries(cert: dict[str, Any]) -> list[dict[str, Any]]:
    """The certificate's entry list; SchemaError unless it is a list of
    objects that each name their kind with a string."""
    entries = cert.get("entries")
    if not isinstance(entries, list):
        raise SchemaError("entries: expected a list of objects")
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("kind"), str):
            raise SchemaError(f"entries[{pos}]: expected an object with a kind")
    return entries


def _items(value: Any, field: str) -> list[tuple[str, Any]]:
    """(field, item) per value of an object or item of a list."""
    if isinstance(value, dict):
        return [(f"{field}.{key}", item) for key, item in value.items()]
    if isinstance(value, list):
        return [(f"{field}[{pos}]", item) for pos, item in enumerate(value)]
    return []


def _recorded_ints(entry: dict[str, Any], label: str) -> list[tuple[str, Any]]:
    """(field, value) of every int ``entry`` records: its params, its
    witness's element indices and pairs, a fact's value and expectation, and
    a representation's ground size, columns and obstruction elements."""
    kind = entry["kind"]
    fields = _items(entry.get("params"), f"{label}.params")
    witness = entry.get("witness")
    if isinstance(witness, dict):
        fields += _items(witness.get("elements"), f"{label}.witness.elements")
        for field, pair in _items(witness.get("pairs"), f"{label}.witness.pairs"):
            fields += _items(pair, field)
    if kind == "fact":
        fields.append((f"{label}.value", entry.get("value")))
        if entry.get("expected") is not None:
            fields.append((f"{label}.expected", entry["expected"]))
    payload = entry.get("payload")
    if kind == "representation" and isinstance(payload, dict):
        if "ground_size" in payload:
            fields.append((f"{label}.payload.ground_size", payload["ground_size"]))
        for name in ("columns", "elements"):
            fields += _items(payload.get(name), f"{label}.payload.{name}")
    return fields


def _recorded_bools(entry: dict[str, Any], label: str) -> list[tuple[str, Any]]:
    """(field, value) of every boolean ``entry`` records: a witness check's
    validity and a separator fact's value, and either's expectation."""
    kind = entry["kind"]
    if kind not in ("witness-check", "separator"):
        return []
    name = "valid" if kind == "witness-check" else "value"
    fields = [(f"{label}.{name}", entry.get(name))]
    if entry.get("expected") is not None:
        fields.append((f"{label}.expected", entry["expected"]))
    return fields


def _strip_stats(entry: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in entry.items() if k != "stats"}


def _written_keys(command: Any, params: dict[str, Any]) -> list[tuple[str, Any, Any, Any]]:
    """(kind, name, params, expected) of each entry the command writes, with
    params None where the entry's own are not keyed; SchemaError for a
    command that writes no certificate, or for a ``check`` of d1plus or d2
    whose level is not a positive int.  Those two are keyed by their level
    (1 unless given, as in ``CHECKERS``); the other axioms have none, so a
    ``parameters.n`` beside them is not read."""
    if command == "sn":
        return sn_entry_keys(params["n"])
    if command == "check":
        axiom = params.get("axiom")
        if axiom not in ("d1plus", "d2"):
            return [("axiom", axiom, None, None)]
        n = params.get("n", 1)
        if type(n) is not int or n < 1:
            raise SchemaError(f"parameters.n: expected a positive int level, got {n!r}")
        return [("axiom", axiom, {"n": n}, None)]
    if command == "represent":
        return [("representation", params.get("mode"), None, None)]
    raise SchemaError(f"command: expected sn, check or represent, got {command!r}")


def _written_key(entry: dict[str, Any], keys: list[tuple[str, Any, Any, Any]]) -> Any:
    """The key ``entry`` is written under, by kind, name and params, or None."""
    name, params = (entry["kind"], _entry_name(entry)), entry.get("params", {})
    return next((key for key in keys if key[:2] == name and key[2] in (None, params)), None)


def verify_certificate(cert: Any) -> list[str]:
    """Re-derive every recorded entry (``derive_entry``) from the embedded
    structure; returns the list of discrepancies."""
    if not isinstance(cert, dict):
        raise SchemaError("certificate payload must be a JSON object")
    version = cert.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"version: expected {SCHEMA_VERSION}, got {version!r}")
    for field in ("command", "parameters", "structure", "structure_sha256", "entries"):
        if field not in cert:
            raise SchemaError(f"{field}: missing certificate field")
    entries = certificate_entries(cert)
    conclusion = cert.get("conclusion")
    if not isinstance(conclusion, dict):
        raise SchemaError("conclusion: expected an object with a boolean ok")
    params = cert["parameters"]
    if not isinstance(params, dict):
        raise SchemaError("parameters: expected an object")

    if cert["command"] == "sn" or any(entry["kind"] == "separator" for entry in entries):
        n = params.get("n")
        if type(n) is not int or not 2 <= n <= SN_CERTIFICATE_CAP:
            raise SchemaError(
                f"parameters.n: a separator certificate needs an int in "
                f"2..{SN_CERTIFICATE_CAP}, got {n!r}"
            )
    # Python's == takes true and 12.0 for 1 and 12, and 1 for true, so the
    # recorded ints and booleans are refused by type before anything is
    # compared with them.
    for pos, entry in enumerate(entries):
        for field, value in _recorded_ints(entry, f"entries[{pos}]"):
            if type(value) is not int:
                raise SchemaError(f"{field}: expected an int, got {value!r}")
        for field, value in _recorded_bools(entry, f"entries[{pos}]"):
            if type(value) is not bool:
                raise SchemaError(f"{field}: expected a boolean, got {value!r}")
    recorded = conclusion.get("ok")
    if type(recorded) is not bool:
        raise SchemaError(f"conclusion.ok: expected a boolean, got {recorded!r}")
    # The key each entry is written under, if any: every key needs an entry,
    # and an entry expects what its command writes, not what it records.
    keys = _written_keys(cert["command"], params)
    written = [_written_key(entry, keys) for entry in entries]
    problems = []
    for kind, name, keyed, expected in keys:
        if (kind, name, keyed, expected) not in written:
            suffix = f" {json.dumps(keyed, sort_keys=True)}" if keyed else ""
            problems.append(f"missing {kind} entry {name}{suffix}")

    raw = cert["structure"]
    cs, _roles = structure_from_json(raw)
    if structure_sha256(loaded_structure_dumps(raw, cs)) != cert["structure_sha256"]:
        problems.append("structure_sha256 does not match the embedded structure")

    @functools.cache
    def separator_facts() -> dict[str, bool]:
        sep = build_separator(params["n"])
        return {
            "matches_canonical_construction": matches_canonical_construction(
                raw, cs, sep.structure, sep.roles
            ),
            **separator_extension_facts(sep),
        }

    for pos, (entry, key) in enumerate(zip(entries, written)):
        claimed = entry if key is None else {**entry, "expected": key[3]}
        try:
            fresh = derive_entry(cs, claimed, separator_facts)
        except Exception as exc:  # a broken entry should name itself, not abort
            problems.append(f"entries[{pos}]: re-derivation raised {exc!r}")
            continue
        if _strip_stats(fresh) != _strip_stats(entry):
            problems.append(
                f"entries[{pos}]: {entry['kind']} {_entry_name(entry)} does not reproduce"
            )

    if recorded != conclusion_ok(entries):
        problems.append("conclusion.ok does not match the recorded entries")
    return problems
