"""Span and counter recorder that instruments contactlab from outside.

``Tracer.install()`` replaces each instrumented function at every binding in
the loaded ``contactlab`` modules (so ``cli.check_d2`` and ``axioms.check_d2``
both go through one wrapper), in ``axioms.CHECKERS``, and on the
``FiniteJoinSemilattice`` class; ``uninstall()`` puts the originals back.
Spans are kept in memory as ``[name, key, op, parent, start, end]`` and only
recorded while an operation is open, so the benchmark's own checks between
operations are not traced.  A span's *key* names the layer metric its self
time counts towards; several functions may share a key.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

NAME, KEY, OP, PARENT, START, END = range(6)


def _calls(counts: Counter, key: str, result: Any) -> None:
    counts[f"{key}.calls"] += 1


def _kernel_examined(counts: Counter, key: str, result: Any) -> None:
    counts[f"{key}.examined"] += result[2]


def _verdict_examined(counts: Counter, key: str, verdict: Any) -> None:
    counts[f"{key}.examined"] += verdict.examined


def _columns(counts: Counter, key: str, column_set: Any) -> None:
    counts["representation.columns"] += len(column_set.columns)


def _lattice(counts: Counter, key: str, lattice: Any) -> None:
    counts["enumeration.lattices"] += 1
    counts[f"enumeration.lattices.size_{lattice.size}"] += 1


def _contact(counts: Counter, key: str, relation: Any) -> None:
    counts["enumeration.contacts"] += 1


def _classes(counts: Counter, key: str, records: Any) -> None:
    counts["enumeration.classes"] += len(records)


def _entries(counts: Counter, key: str, cert: Any) -> None:
    counts["certificates.entries"] += len(cert["entries"])


# Certificates carry wall-clock ``elapsed_s`` stats whose printed length
# varies from run to run; they are left out so the count is exact.
_ELAPSED = re.compile(r'"elapsed_s": [^,\n}]*')


def _bytes(counts: Counter, key: str, text: Any) -> None:
    counts["serialize.bytes"] += len(text) - sum(len(m) for m in _ELAPSED.findall(text))


def _d2_scan_key(tracer: "Tracer") -> str:
    # check_d2 scans bounded levels; decide_d2_all and profile_of call the
    # same scan with the bound set to the number of non-contact pairs.
    return "axioms.d2" if tracer.parent_key() == "axioms.d2" else "axioms.d2all"


Count = Callable[[Counter, str, Any], None]

# (module, function, key or key function, counter).  The counter sees the
# call's result, or for a generator each item it yields.  The two private
# scans are wrapped because profile_of calls them directly.
INSTRUMENTED: list[tuple[str, str, Any, Count | None]] = [
    ("core", "join_closure", "core.join_closure", None),
    ("axioms", "check_weak_contact", "axioms.weak_contact", _calls),
    ("axioms", "check_additive", "axioms.additive", None),
    ("axioms", "check_d1", "axioms.d1plus", None),
    ("axioms", "check_d1_plus", "axioms.d1plus", None),
    ("axioms", "_first_d1plus_violation", "axioms.d1plus", _kernel_examined),
    ("axioms", "check_d2", "axioms.d2", None),
    ("axioms", "decide_d2_all", "axioms.d2all", None),
    ("axioms", "_first_d2_violation", _d2_scan_key, _kernel_examined),
    ("axioms", "check_d2_minus", "axioms.d2minus", _verdict_examined),
    ("axioms", "profile_of", "axioms.profile", _calls),
    ("axioms", "revalidate_witness", "axioms.revalidate", None),
    ("constructions", "build_separator", "constructions.build_separator", None),
    ("constructions", "min_contact_extension", "constructions.min_contact_extension", None),
    ("constructions", "check_embedding_criterion", "constructions.embedding_criterion", None),
    ("constructions", "ambient_extension_facts", "constructions.ambient_facts", None),
    ("representation", "decide_weak_representable", "representation.decide", _calls),
    ("representation", "decide_overlap_representable", "representation.decide", _calls),
    ("representation", "admissible_columns", "representation.decide", _columns),
    ("enumeration", "enumerate_semilattices", "enumeration.lattices", _lattice),
    ("enumeration", "enumerate_contacts", "enumeration.contacts", _contact),
    ("enumeration", "iso_class_key", "enumeration.iso_key", None),
    ("enumeration", "classify_corpus", "enumeration.classify", _classes),
    ("certificates", "separator_extension_facts", "certificates.extension_facts", None),
    ("certificates", "build_certificate", "certificates.build", _entries),
    ("certificates", "verify_certificate", "certificates.verify", None),
    ("serialize", "structure_from_json", "serialize.load", None),
    ("serialize", "load_structure_file", "serialize.load", None),
    ("serialize", "structure_to_json", "serialize.to_json", None),
    ("serialize", "canonical_dumps", "serialize.dumps", _bytes),
    ("serialize", "structure_sha256", "serialize.dumps", None),
    ("cli", "main", "cli.self", None),
]

# Lazily evaluated order masks and the union-closure recheck on load.
LATTICE_METHODS = [
    ("leq_masks", "core.order_masks"),
    ("below_masks", "core.order_masks"),
    ("__init__", "core.lattice_init"),
]

# CHECKERS entries dispatch to the functions above; their own spans carry
# the key of the checker they dispatch to.
CHECKER_KEYS = {
    "weak-contact": "axioms.weak_contact",
    "add": "axioms.additive",
    "d1": "axioms.d1plus",
    "d1plus": "axioms.d1plus",
    "d2": "axioms.d2",
    "d2minus": "axioms.d2minus",
    "d2all": "axioms.d2all",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op

    def end(self) -> None:
        self.op = None

    def parent_key(self) -> str | None:
        return self.spans[self._stack[-1]][KEY] if self._stack else None

    def _open(self, name: str, key: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, key, self.op, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, key_of: Any, count: Count | None) -> Callable:
        tracer = self

        def key() -> str:
            return key_of(tracer) if callable(key_of) else key_of

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if tracer.op is None:
                        item = next(it, _DONE)
                    else:
                        k = key()
                        idx = tracer._open(name, k)
                        try:
                            item = next(it, _DONE)
                        finally:
                            tracer._close(idx)
                        if count is not None and item is not _DONE:
                            count(tracer.counts, k, item)
                    if item is _DONE:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            k = key()
            idx = tracer._open(name, k)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, k, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "contactlab" or n.startswith("contactlab."))
        ]
        wrappers: dict[int, Callable] = {}
        for mod_name, fn_name, key, count in INSTRUMENTED:
            original = getattr(sys.modules[f"contactlab.{mod_name}"], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", key, count)
            wrappers[id(original)] = wrapper
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

        checkers = sys.modules["contactlab.axioms"].CHECKERS
        for axiom, fn in list(checkers.items()):
            wrapper = wrappers.get(id(fn)) or self._wrap(
                fn, f"axioms.CHECKERS[{axiom}]", CHECKER_KEYS[axiom], None
            )
            self._patch_item(checkers, axiom, wrapper)

        cls = sys.modules["contactlab.core"].FiniteJoinSemilattice
        for attr, key in LATTICE_METHODS:
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(
                    self._wrap(original.func, f"core.{attr}", key, None)
                )
                replacement.__set_name__(cls, attr)
            else:
                replacement = self._wrap(original, f"core.{attr}", key, None)
            self._patch(cls, attr, replacement)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, mapping: dict, key: str, value: Any) -> None:
        original = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per key: span durations minus the time their child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            out[span[KEY]] += span[END] - span[START] - covered[idx]
        return dict(out)

    def root_time(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()


_DONE = object()


def write_spans(path: str, passes: list[list[list[Any]]]) -> None:
    """One JSON object per span; ``pass`` and ``id`` locate it, ``parent``
    is the ``id`` of the enclosing span within the same pass or -1."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, spans in enumerate(passes):
            for idx, s in enumerate(spans):
                handle.write(json.dumps({
                    "pass": number, "id": idx, "name": s[NAME], "key": s[KEY],
                    "op": s[OP], "parent": s[PARENT], "start": s[START], "end": s[END],
                }) + "\n")
