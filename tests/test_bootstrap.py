"""Derivation engine: counting lemma, rule steps, certificates, verifier."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from twistcert import bootstrap as bs
from twistcert import lickorish as lk
from twistcert import surface as sf


def test_count_examples():
    cases = [(3, 2, 3), (4, 3, 6), (5, 4, 6)]
    for g, k, lhs in cases:
        assert bs.count_inequality(g, k) == lhs and lhs >= g


def test_count_range_validation():
    with pytest.raises(bs.BootstrapError):
        bs.count_inequality(3, 1)
    with pytest.raises(bs.BootstrapError):
        bs.count_inequality(3, 7)
    with pytest.raises(bs.BootstrapError):
        bs.count_inequality(0, 2)


def test_count_small_sweep():
    for g in range(1, 200):
        for k in range(2, 2 * g + 1):
            assert bs.count_inequality(g, k) >= g, (g, k)


def test_genus1_step():
    node = next(n for n in bs.derive_technical(3, 2).nodes if n["rule"] == "genus1_step")
    # the torsion bootstrap's n = g factors and k = 1 are derived, not stored
    assert node["params"] == {"g": 3, "dim": 2, "size_limit": 2} and node.keys() == {"rule", "params", "premises"}
    assert len(sf.pack_subsurfaces(3, "fit1", 1).marked_pieces) == node["params"]["g"]


def test_derive_technical_round_trip():
    cert = bs.derive_technical(3, 2)
    assert isinstance(cert, bs.Certificate)
    assert bs.verify(cert) == []


def test_dim_zero_certificate_verifies():
    cert = bs.derive_technical(3, 0)
    assert isinstance(cert, bs.Certificate) and cert.dim == 0
    assert bs.verify(cert) == []


def test_exhaustive_coverage_at_exactly_the_bound():
    report = {}
    assert bs.verify(bs.derive_technical(4, 3), exhaustive_max_genus=4, report=report) == []
    # 111 connected subsets at genus 4, less 11 singletons and 10 crossing pairs
    assert report["coverage"] == {"mode": "exhaustive", "max_genus": 4, "connected_subsets": 90}


def test_verify_clamps_its_bound_and_reports_each_coverage_mode():
    cert = bs.derive_technical(5, 4)
    report = {}
    assert bs.verify(cert, exhaustive_max_genus=bs.EXHAUSTIVE_HARD_CAP + 3, report=report) == []
    # 249 connected subsets at genus 5, less 14 singletons and 13 crossing pairs
    assert report == {"coverage": {"mode": "exhaustive", "max_genus": 15, "connected_subsets": 222}, "found": 0}
    report = {}
    assert bs.verify(cert, exhaustive_max_genus=4, report=report) == []
    assert report == {"coverage": {"mode": "schema-only", "max_genus": 4}}
    report = {}
    violations = bs.verify(cert._replace(version="0.4.0"), report=report)
    assert [(v.rule, v.field, v.claimed) for v in violations] == [("header", "version", "0.4.0")]
    assert report == {"coverage": {"mode": "not-run", "max_genus": 15}}


def test_derive_failures_at_dim_g():
    for g in (3, 4):
        for derive in (bs.derive_technical, bs.derive_main, bs.derive_kg):
            result = derive(g, g)
            assert isinstance(result, bs.Failure)
            assert result.blocking_rule == "genus1_step"
            assert result.tag == "DIM_TOO_LARGE"


def test_axiom_tags_per_theorem():
    cert = bs.derive_main(4, 3)
    assert {"SEMISIMPLE", "FINITE_ABELIANIZATION", "L1LOOP"} <= set(cert.axioms)
    cert = bs.derive_kg(4, 3)
    assert "SEPARATING_TWISTS_IN_KERNEL" in set(cert.axioms)
    cert = bs.derive_technical(4, 3)
    assert "HANDLE_SEPARATING_TWIST_ELLIPTIC" in set(cert.axioms)
    for theorem in bs.Theorem:
        assert set(bs._derive(4, 3, theorem).axioms) <= bs.allowed_axioms(theorem)


def test_monotonicity_in_dim():
    for g in (3, 4, 5):
        assert isinstance(bs.derive_technical(g, g - 1), bs.Certificate)
        for d in range(0, g):
            assert isinstance(bs.derive_technical(g, d), bs.Certificate), (g, d)


def test_genus_two_routes():
    for derive in (bs.derive_technical, bs.derive_main, bs.derive_kg):
        cert = derive(2, 1)
        assert isinstance(cert, bs.Certificate)
        assert cert.axioms == ("R_TREE_FIXED_POINT",)
        assert bs.verify(cert) == []
        failure = derive(2, 2)
        assert isinstance(failure, bs.Failure) and failure.tag == "DIM_TOO_LARGE"


def test_serialization_byte_stable():
    a = bs.derive_technical(4, 3).to_json()
    b = bs.derive_technical(4, 3).to_json()
    assert a == b
    doc = json.loads(a)
    assert list(doc["header"].keys()) == sorted(doc["header"].keys())
    assert all(list(n) == ["params", "premises", "rule"] for n in doc["nodes"])  # a node's id is its position


def _canonical(cert):
    return json.dumps(cert.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def test_batched_serialization_is_the_canonical_json():
    # at g >= 3 the node count is 15g - 12 plus the axioms; find a genus
    # whose nodes fill whole batches, so that no batch is short
    batch_g = next(g for g in range(3, 1000) if bs._expected_node_count(g, bs.Theorem.TECHNICAL) % bs._NODE_BATCH == 0)
    for derive in (bs.derive_technical, bs.derive_main, bs.derive_kg):
        for g in (2, 3, 7, batch_g, 400):
            cert = derive(g, 1)
            assert cert.to_json() == _canonical(cert), (derive.__name__, g)
    assert len(bs.derive_technical(batch_g, 1).nodes) % bs._NODE_BATCH == 0


def test_expected_axioms_are_the_axiom_nodes():
    for theorem in bs.Theorem:
        for g in (2, 3, 7):
            tags = sorted(n["params"]["tag"] for n in bs._expected_nodes(g, 1, theorem) if n["rule"] == "axiom")
            assert bs._expected_axioms(g, theorem) == tuple(tags), (theorem, g)


def _traced_peak(fn, *args):
    """fn(*args), and the peak in bytes of the memory allocated during the call."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checker_and_serialiser_memory_at_genus_400():
    # verify holds the certificate's nodes and one verdict per packing:
    # neither a second node inventory nor the 1,198 packing plans
    cert = bs.derive_technical(400, 399)
    loaded = bs.certificate_from_json(cert.to_json())
    violations, peak = _traced_peak(bs.verify, loaded)
    assert violations == [] and peak < 1_000_000, peak
    # the nodes are encoded a batch at a time, not as one fragment list
    text, peak = _traced_peak(cert.to_json)
    assert peak < 3 * len(text), (peak, len(text))


def test_serialization_round_trip():
    cert = bs.derive_kg(3, 2)
    again = bs.certificate_from_json(cert.to_json())
    assert bs.verify(again) == []
    assert again.to_json() == cert.to_json()


def test_verifier_rejects_inflated_packing_count():
    # the packing count is pack_count(g, kind, ell); a smaller ell packs more pieces
    cert = bs.derive_technical(3, 2)
    doc = json.loads(cert.to_json())
    pos, node = next((i, n) for i, n in enumerate(doc["nodes"])
                     if n["rule"] == "connected_bootstrap" and n["params"]["pack_ell"] > 1)
    kind, ell = node["params"]["pack_kind"], node["params"]["pack_ell"]
    assert sf.pack_count(3, kind, ell - 1) > sf.pack_count(3, kind, ell)
    node["params"]["pack_ell"] = ell - 1
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    assert violations
    assert any(v.node_id == pos for v in violations)
    assert [(v.node_id, v.rule, v.field, v.claimed["pack_ell"], v.recomputed["pack_ell"]) for v in violations] == [
        (pos, "connected_bootstrap", "params", ell - 1, ell)
    ]


def test_verifier_rejects_deleted_premise_edge():
    cert = bs.derive_technical(3, 2)
    doc = json.loads(cert.to_json())
    node = next(n for n in doc["nodes"] if n["rule"] == "split_commuting" and n["premises"])
    node["premises"] = node["premises"][:-1]
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    assert [tuple(v) for v in violations] == [
        (7, "split_commuting", "premises", [], [6], "premise edges do not match")]


def test_verifier_rejects_wrong_axioms():
    cert = bs.derive_technical(3, 2)
    doc = json.loads(cert.to_json())
    doc["axioms"] = [a for a in doc["axioms"] if a != "HELLY"]
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    want = ["HANDLE_SEPARATING_TWIST_ELLIPTIC", "HELLY", "ORBIT_TRANSITIVITY", "R_TORSION",
            "SL2Z_TORSION_GENERATION"]
    assert [tuple(v) for v in violations] == [
        (-1, "header", "axioms", [a for a in want if a != "HELLY"], want, "axiom list mismatch")]


def test_verifier_reports_a_tampered_conclusion_form_first():
    doc = json.loads(bs.derive_technical(3, 2).to_json())
    doc["conclusion"] = {"curves": ["a1"], "form": "Elliptic"}
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    assert [str(v) for v in violations] == [
        "node -1 [conclusion] conclusion: conclusion must cover the full generator set (claimed "
        "{'form': 'Elliptic', 'curves': ['a1']}, recomputed {'form': 'Elliptic', 'curves': "
        "['a1', 'a2', 'a3', 'b1', 'b2', 'b3', 'g1', 'g2']})"]


def test_verifier_rejects_tampered_pack_params():
    # the first connected_bootstrap node, (size 3, genus 1, boundary 1) packed by fit1 with ell = 1;
    # ell = 2 leaves one fit1 piece at genus 3, and 1 * (3 - 1) = 2 conjugates cannot bound dim 2
    schema = {"size": 3, "claim_genus": 1, "claim_boundary": 1, "pack_kind": "fit1", "pack_ell": 1}
    dim_check = (8, "connected_bootstrap", "dim_check", 2, 1, "dimension side condition violated")
    for key, value, extra in (("pack_kind", "fit3", []), ("pack_ell", 2, [dim_check])):
        doc = json.loads(bs.derive_technical(3, 2).to_json())
        node = next(n for n in doc["nodes"] if n["rule"] == "connected_bootstrap")
        assert node["params"] == schema
        node["params"][key] = value
        violations = bs.verify(bs.certificate_from_json_dict(doc))
        assert [tuple(v) for v in violations] == [
            (8, "connected_bootstrap", "params", node["params"], schema, "parameters do not match the schema"),
            *extra,
        ], key


def test_verifier_rejects_stray_packing_witness():
    doc = json.loads(bs.derive_technical(3, 2).to_json())
    pos, node = next((i, n) for i, n in enumerate(doc["nodes"]) if n["rule"] == "connected_bootstrap")
    plan = sf.pack_subsurfaces(3, node["params"]["pack_kind"], node["params"]["pack_ell"])
    node["witnesses"] = {"packing": {"pieces": [list(p) for p in plan.pieces],
                                     "gluings": [list(gl) for gl in plan.gluings],
                                     "marked": list(plan.marked_pieces)}}
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    assert [(v.node_id, v.rule, v.field, v.claimed) for v in violations] == [
        (-1, "format", f"nodes[{pos}]", "witnesses")]


def test_verify_builds_each_distinct_packing_once(monkeypatch):
    g = 40
    cert = bs.derive_technical(g, g - 1)
    built, checked = [], []
    original_pack, original_assembly = sf.pack_subsurfaces, sf.assembly_problems

    def pack(genus, kind, ell):
        built.append((kind, ell))
        return original_pack(genus, kind, ell)

    def assembly(plan, genus):
        checked.append(plan)
        return original_assembly(plan, genus)

    monkeypatch.setattr(sf, "pack_subsurfaces", pack)
    monkeypatch.setattr(sf, "assembly_problems", assembly)
    assert bs.verify(cert) == []
    distinct = {("fit1", 1)} | {(n["params"]["pack_kind"], n["params"]["pack_ell"])
                                for n in cert.nodes if n["rule"] == "connected_bootstrap"}
    assert len(distinct) == 3 * g - 2
    assert sorted(built) == sorted(distinct)
    assert len(checked) == 3 * g - 2


def test_verifier_rejects_overclaimed_dim():
    cert = bs.derive_technical(3, 2)
    doc = json.loads(cert.to_json())
    doc["header"]["dim"] = 3
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    assert violations
    assert [(v.node_id, v.rule, v.field, v.claimed, v.recomputed) for v in violations] == [(-1, "header", "dim", 3, 2)]


def test_verifier_rejects_dropped_node():
    cert = bs.derive_technical(3, 2)
    doc = json.loads(cert.to_json())
    dropped = doc["nodes"].pop(len(doc["nodes"]) - 2)
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    assert violations
    assert [(v.node_id, v.rule, v.field, v.claimed, v.recomputed) for v in violations] == [
        (-1, "inventory", "node_count", 37, 38)
    ]


def test_size_induction_chain():
    nodes = bs.derive_technical(4, 3).nodes
    chain = [i for i, n in enumerate(nodes) if n["rule"] == "size_induction"]
    assert [nodes[i]["params"]["size"] for i in chain] == list(range(3, 12))
    genus1 = next(i for i, n in enumerate(nodes) if n["rule"] == "genus1_step")
    for below, pos in zip([genus1] + chain, chain):
        node = nodes[pos]
        assert node["premises"][0] == below
        assert bs.judgment(node) == {"form": "EllipticSchema", "scope": "size_le", "size": node["params"]["size"]}
        cited = [nodes[p] for p in node["premises"][1:]]
        assert cited[0]["rule"] == "split_commuting"
        assert all(p["params"]["size"] == node["params"]["size"] for p in cited)
        assert all(p["premises"][0] == below for p in cited)
    assert nodes[-1]["premises"] == [chain[-1]]


def test_premise_lists_grow_linearly():
    for g in range(3, 61):
        nodes = bs.derive_technical(g, g - 1).nodes
        assert sum(len(n["premises"]) for n in nodes) <= 8 * len(nodes), g


def test_certificate_size_at_genus_100():
    text = bs.derive_technical(100, 99).to_json()
    assert len(text.encode()) <= 215_000
    nodes = json.loads(text)["nodes"]
    # no judgment and no witness: check derives the bootstrap's n and k,
    # its packing and its count and dim instances
    assert all(n.keys() == {"rule", "params", "premises"} for n in nodes)
    assert not any({"n", "k"} & n["params"].keys() for n in nodes)


def test_verifier_rejects_deleted_size_induction_node():
    doc = json.loads(bs.derive_technical(3, 2).to_json())
    pos = next(i for i, n in enumerate(doc["nodes"]) if n["rule"] == "size_induction")
    del doc["nodes"][pos]
    assert bs.verify(bs.certificate_from_json_dict(doc))


def test_verifier_rejects_deleted_size_induction_premise():
    for drop in (0, -1):  # the size_le link below, and a connected node of this size
        doc = json.loads(bs.derive_technical(3, 2).to_json())
        pos = [i for i, n in enumerate(doc["nodes"]) if n["rule"] == "size_induction"][2]
        del doc["nodes"][pos]["premises"][drop]
        violations = bs.verify(bs.certificate_from_json_dict(doc))
        assert [(v.node_id, v.field) for v in violations] == [(pos, "premises")]


def test_verifier_rejects_old_format_version():
    doc = json.loads(bs.derive_technical(3, 2).to_json())
    doc["header"]["version"] = "0.1.0"
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    assert [(v.rule, v.field, v.claimed) for v in violations] == [("header", "version", "0.1.0")]


def test_verifier_names_non_object_count_witness():
    doc = json.loads(bs.derive_technical(3, 2).to_json())
    pos = next(i for i, n in enumerate(doc["nodes"]) if n["rule"] == "connected_bootstrap")
    doc["nodes"][pos]["witnesses"] = {"count": 5}
    violations = bs.verify(bs.certificate_from_json_dict(doc))
    assert [(v.node_id, v.rule, v.field, v.claimed) for v in violations] == [
        (-1, "format", f"nodes[{pos}]", "witnesses")]


def test_schema_verification_above_exhaustive_bound():
    cert = bs.derive_technical(7, 6)
    assert bs.verify(cert, exhaustive_max_genus=6) == []


def test_coverage_requires_every_split_node():
    cert = bs.derive_technical(4, 3)
    assert bs._exhaustive_coverage(cert) == ([], 90)
    nodes = tuple(n for n in cert.nodes if not (n["rule"] == "split_commuting" and n["params"]["size"] == 5))
    violations, counted = bs._exhaustive_coverage(cert._replace(nodes=nodes))
    assert [(v.field, v.claimed) for v in violations] == [("split", 5)]
    assert counted == 0  # the structural check fails before any subset is enumerated


def test_coverage_reports_21_violations_and_counts_every_subset():
    # no connected_bootstrap node of size 3 or 4: 32 subsets at genus 5 are uncovered
    cert = bs.derive_technical(5, 4)
    nodes = tuple(n for n in cert.nodes if not (n["rule"] == "connected_bootstrap" and n["params"]["size"] in (3, 4)))
    violations, counted = bs._exhaustive_coverage(cert._replace(nodes=nodes))
    assert [v.field for v in violations] == ["connected"] * 21
    first = violations[0]
    assert (first.node_id, first.rule, first.claimed, first.recomputed) == (-1, "coverage", (3, 1, 2), -1)
    assert first.message == "no schema node covers ['a1', 'b1', 'g1']"
    assert counted == 222  # the scan stops reporting, not counting


def test_expected_node_count_closed_form():
    for theorem in bs.Theorem:
        for g in list(range(2, 25)) + [61]:
            assert bs._expected_node_count(g, theorem) == len(list(bs._expected_nodes(g, g - 1, theorem))), (g, theorem)


def test_schema_arithmetic_implied_by_count_lemma():
    """dim <= g-1 plus the counting lemma guarantees every schema node's
    dimension side condition, across a wide range of genera."""
    for g in range(3, 150):
        for size in range(3, 3 * g):
            profiles = bs._schema_profiles(size, g)
            assert len(profiles) == 3, (g, size)
            for (_h, _b, kind, ell) in profiles:
                n = sf.pack_count(g, kind, ell)
                assert n >= 1, (g, size, kind, ell)
                assert n * (size - 1) >= g, (g, size, kind, ell)
