"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion A2 is exercised on the level-3 and the level-4
separator.
"""

import json
import time
from contextlib import contextmanager
from itertools import product

from contactlab.axioms import (
    check_additive,
    check_d2,
    check_d2_naive,
    check_weak_contact,
    revalidate_witness,
)
from contactlab.certificates import verify_certificate
from contactlab.cli import main
from contactlab.constructions import (
    ContactMap,
    OrderPreservationError,
    ZeroReflectionError,
    build_free_algebra,
    build_separator,
    check_embedding_criterion,
    inclusion_into_ambient,
    min_contact_extension,
    parity_products,
    parity_products_sum_form,
)
from contactlab.core import ContactStructure, is_subset
from contactlab.enumeration import (
    classify_corpus,
    corpus_implications,
    enumerate_contacts,
    enumerate_semilattices,
)
from contactlab.representation import (
    Exhausted,
    Representation,
    brute_force_representation,
    decide_overlap_representable,
    decide_weak_representable,
)
from contactlab.serialize import (
    canonical_dumps,
    structure_from_json,
    structure_to_json,
    write_structure_file,
)


@contextmanager
def criterion(cid: str, budget_s: float, description: str):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{cid} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[{cid}] PASS in {elapsed:.2f}s: {description}")


def axiom_entries(cert, axiom):
    return [
        e for e in cert["entries"] if e["kind"] == "axiom" and e["axiom"] == axiom
    ]


def test_A1_level2_separator_certificate(tmp_path):
    with criterion("A1", 1.0, "level-2 separator: structure facts and d2 profile"):
        out = tmp_path / "sn2.json"
        assert main(["sn", "--n", "2", "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        facts = {e["fact"]: e["value"] for e in cert["entries"] if e["kind"] == "fact"}
        assert facts["carrier_size"] == 12
        assert facts["atom_count"] == 6
        assert facts["noncontact_pair_count"] == 2
        assert axiom_entries(cert, "d1")[0]["verdict"] == "pass"
        d2 = {e["params"]["n"]: e["verdict"] for e in axiom_entries(cert, "d2")}
        assert d2 == {1: "pass", 2: "fail"}
        checks = [e for e in cert["entries"] if e["kind"] == "witness-check"]
        assert checks and checks[0]["valid"] is True
        # the designated witness pairs the two parity products
        sep = build_separator(2)
        roles = dict(checks[0]["witness"]["elements"])
        assert {roles["a"], roles["b"]} == {sep.even_product, sep.odd_product}


def test_A2_level3_separator(tmp_path):
    with criterion("A2", 60.0, "level-3 separator: d2 passes below 3, fails at 3"):
        out = tmp_path / "sn3.json"
        assert main(["sn", "--n", "3", "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        d2 = {e["params"]["n"]: e["verdict"] for e in axiom_entries(cert, "d2")}
        assert d2 == {1: "pass", 2: "pass", 3: "fail"}
        assert axiom_entries(cert, "d1")[0]["verdict"] == "pass"


def test_A2_level4_separator(tmp_path):
    with criterion("A2-level4", 600.0, "level-4 separator profile and certificate"):
        out = tmp_path / "sn4.json"
        assert main(["sn", "--n", "4", "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        d2 = {e["params"]["n"]: e["verdict"] for e in axiom_entries(cert, "d2")}
        assert d2 == {1: "pass", 2: "pass", 3: "pass", 4: "fail"}
        assert verify_certificate(cert) == []


def test_A3_parity_products_to_ten():
    with criterion("A3", 1.0, "parity products: complement identity and normal forms"):
        for n in range(1, 11):
            ba = build_free_algebra(n)
            even, odd = parity_products(n)
            assert even == ba.complement(odd)
            assert even & odd == 0
            assert even | odd == ba.full
            assert (even, odd) == parity_products_sum_form(n)


def test_A4_designated_elements_incomparable_to_ten():
    with criterion("A4", 5.0, "2n+2 designated elements pairwise incomparable"):
        for n in range(2, 11):
            ba = build_free_algebra(n)
            even, odd = parity_products(n)
            masks = [ba.literal(i, j) for i in range(1, n + 1) for j in (0, 1)]
            masks += [even, odd]
            for pos, x in enumerate(masks):
                for y in masks[pos + 1 :]:
                    assert not is_subset(x, y) and not is_subset(y, x)


def test_A5_ambient_extension_facts():
    with criterion("A5", 30.0, "ambient extension: weak contact, embedding, non-additive"):
        for n in (2, 3):
            sep = build_separator(n)
            incl = inclusion_into_ambient(sep)
            assert check_embedding_criterion(incl).passed
            ext = min_contact_extension(incl)
            ext_cs = ContactStructure(incl.target, ext)
            assert check_weak_contact(ext_cs).passed
            rel = sep.structure.contact
            for i in range(1, sep.structure.size):
                for j in range(i, sep.structure.size):
                    assert ext.related(incl.kappa[i], incl.kappa[j]) == rel.related(
                        i, j
                    )
            verdict = check_additive(ext_cs)
            assert not verdict.passed
            assert revalidate_witness(ext_cs, "add", {}, verdict.witness)


def test_A6_corpus_implications():
    with criterion("A6", 600.0, "corpus to size 6 at depth 3: zero violations"):
        for max_size in (5, 6):  # 5 is the requirement, 6 the stretch
            records = classify_corpus(max_size, d1_plus_max=3, d2_max=3)
            report = corpus_implications(records)
            for item in report:
                assert item["violations"] == [], (
                    f"{item['name']} violated at max_size {max_size}: "
                    f"{item['violations']}"
                )


def test_A7_minimal_extension_exhaustive():
    with criterion("A7", 300.0, "extension minimality over all small maps"):
        sources = [
            ContactStructure(lat, rel)
            for lat in enumerate_semilattices(3)
            for rel in enumerate_contacts(lat)
        ]
        targets = list(enumerate_semilattices(4))
        checked = 0
        for src in sources:
            for tgt in targets:
                for kappa in product(range(tgt.size), repeat=src.size):
                    cmap = ContactMap(src, tgt, kappa)
                    try:
                        cmap.validate()
                    except (OrderPreservationError, ZeroReflectionError):
                        continue
                    ext = min_contact_extension(cmap)
                    for cand in enumerate_contacts(tgt):
                        if not all(
                            cand.related(kappa[i], kappa[j])
                            for i in range(1, src.size)
                            for j in range(i, src.size)
                            if src.contact.related(i, j)
                        ):
                            continue
                        checked += 1
                        assert all(
                            ext.rows[i] & ~cand.rows[i] == 0
                            for i in range(tgt.size)
                        )
        assert checked > 0


def test_A8_oracle_agreements():
    with criterion("A8", 600.0, "column vs brute-force and bucketed vs naive d2"):
        records = classify_corpus(5, d1_plus_max=3, d2_max=3)
        for record in records:
            cs = record.structure
            for mode, decide in (
                ("weak", decide_weak_representable),
                ("overlap", decide_overlap_representable),
            ):
                canonical = decide(cs)
                brute = brute_force_representation(cs, mode=mode, u_max=cs.size)
                assert not isinstance(brute, Exhausted)
                assert isinstance(canonical, Representation) == isinstance(
                    brute, Representation
                )
        sep2 = build_separator(2)
        targets = [r.structure for r in records] + [sep2.structure]
        for cs in targets:
            assert cs.size <= 12
            for level in (1, 2, 3):
                assert (
                    check_d2(cs, level).passed
                    == check_d2_naive(cs, level).passed
                )


def test_A9_certificates_reverify_and_roundtrip(tmp_path):
    sep = build_separator(2)
    s2 = tmp_path / "s2.json"
    write_structure_file(str(s2), sep.structure, sep.roles)
    emitted = []
    for name, argv in (
        ("sn2", ["sn", "--n", "2"]),
        ("sn3", ["sn", "--n", "3"]),
        ("check-d1", ["check", str(s2), "d1"]),
        ("check-d2", ["check", str(s2), "d2", "--n", "2"]),
        ("represent-weak", ["represent", str(s2), "--mode", "weak"]),
        ("represent-overlap", ["represent", str(s2), "--mode", "overlap"]),
    ):
        path = tmp_path / f"{name}.json"
        main(argv + ["--out", str(path)])
        emitted.append(path)
    with criterion("A9", 1.0 * len(emitted) + 1.0, "certificates re-verify; files round-trip"):
        for path in emitted:
            t0 = time.perf_counter()
            cert = json.loads(path.read_text())
            assert verify_certificate(cert) == [], path.name
            assert time.perf_counter() - t0 < 1.0, f"{path.name} over 1s"
        # structure JSON round-trips bit-exactly
        text = s2.read_text()
        cs, roles = structure_from_json(json.loads(text))
        assert canonical_dumps(structure_to_json(cs, roles)) == text
