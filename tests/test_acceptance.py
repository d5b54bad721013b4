"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest -s tests/test_acceptance.py`` to see the lines as they go.
All checks are exact (zero tolerance); the genus ranges and case counts
follow the desk-scale contract.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from twistcert import bootstrap as bs
from twistcert import lickorish as lk
from twistcert import nervecplx as nc
from twistcert import surface as sf
from twistcert import sweeps


def _report(num: int, name: str, result: sweeps.SweepResult, budget: float) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(
        f"ACCEPTANCE {num} {name}: {status} "
        f"({result.checked} cases, {len(result.violations)} violations, {result.elapsed:.1f}s)"
    )
    for v in result.violations[:10]:
        print(f"  violation: {v}")
    assert result.passed, f"{name}: {len(result.violations)} violations"
    assert result.elapsed < budget, f"{name} exceeded {budget}s"


def test_acceptance_1_chain_lemma_oracle():
    """Every chain's raw neighbourhood: even m -> (m/2, 1), odd m ->
    ((m-1)/2, 2), for genus 2..5."""
    result = sweeps.sweep_goodchains(2, 5)
    _report(1, "chain-lemma-oracle", result, 60.0)


def test_acceptance_2_separating_chain_census():
    """Brute-force separating chains coincide with the deleted-interior-a
    family, for genus 2..5."""
    result = sweeps.sweep_badchains(2, 5)
    _report(2, "separating-chain-census", result, 60.0)


def test_acceptance_3_interval_lemmas():
    """Filled neighbourhoods of the four interval windows match the
    handle-window table with connected complements, genus 3..5."""
    result = sweeps.sweep_intervals(3, 5)
    _report(3, "interval-lemmas", result, 120.0)


def test_acceptance_4_size_classification_soundness():
    """Every connected subset's claim is semantically verified against
    the ribbon-graph model, genus 2..5."""
    result = sweeps.sweep_size_soundness(2, 5)
    _report(4, "size-classification-soundness", result, 300.0)


def test_acceptance_5_counting_lemma():
    """The floor-count inequality holds for every genus up to 10^4 and
    every k in [2, 2g]."""
    result = sweeps.sweep_count(1, 10_000)
    _report(5, "counting-lemma", result, 120.0)


def test_acceptance_6_packing_lemma():
    """Packings emit exactly the advertised marked-piece counts and pass
    the assembly checks for 1 <= ell <= g <= 12."""
    result = sweeps.sweep_fit(1, 12)
    _report(6, "packing-lemma", result, 30.0)


def test_acceptance_7_certificates():
    """All three theorems derive and verify at dim = g-1 for genus 3..8
    (exhaustive coverage through genus 6) and fail at dim = g at the
    genus-one base step."""
    t0 = time.perf_counter()
    result = sweeps.SweepResult("certificates")
    derivers = {
        "technical": bs.derive_technical,
        "main": bs.derive_main,
        "kg": bs.derive_kg,
    }
    for g in range(3, 9):
        for name, derive in derivers.items():
            result.checked += 1
            cert = derive(g, g - 1)
            if not isinstance(cert, bs.Certificate):
                result.violations.append(f"{name} g={g} dim={g - 1}: derivation failed")
                continue
            violations = bs.verify(cert, exhaustive_max_genus=6)
            for v in violations[:5]:
                result.violations.append(f"{name} g={g}: {v}")
            failure = derive(g, g)
            result.checked += 1
            if not isinstance(failure, bs.Failure):
                result.violations.append(f"{name} g={g} dim={g}: should have failed")
            elif failure.blocking_rule != "genus1_step" or failure.tag != "DIM_TOO_LARGE":
                result.violations.append(
                    f"{name} g={g} dim={g}: blocked at {failure.blocking_rule}/{failure.tag}"
                )
    result.elapsed = time.perf_counter() - t0
    _report(7, "certificates", result, 300.0)


def _mutate_once(doc: dict, rng: random.Random) -> str:
    """Apply one random single-field mutation to a certificate document
    and return a description: delete a premise edge, edit an integer or
    string in a node's params, or, in a quarter of the draws, add a
    ``stray`` key, outside the certificate format, to the node."""
    nodes = doc["nodes"]
    pos = rng.randrange(len(nodes))  # a node's id is its position
    node = nodes[pos]
    mode = rng.random()

    def int_leaves(obj, path):
        out = []
        if isinstance(obj, dict):
            for k, v in obj.items():
                out.extend(int_leaves(v, path + [k]))
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                out.extend(int_leaves(v, path + [i]))
        elif isinstance(obj, int) and not isinstance(obj, bool):
            out.append((path, obj))
        return out

    if mode < 0.25 and node["premises"]:
        idx = rng.randrange(len(node["premises"]))
        removed = node["premises"].pop(idx)
        return f"node {pos}: deleted premise edge {removed}"

    if mode >= 0.75:
        node["stray"] = rng.choice((-1, 1, 7))
        return f"node {pos}: stray key added"
    target = node["params"]
    leaves = int_leaves(target, [])
    str_leaves = [(k, v) for k, v in target.items() if isinstance(v, str)]
    if leaves and (not str_leaves or rng.random() < 0.8):
        path, old = rng.choice(leaves)
        obj = target
        for step in path[:-1]:
            obj = obj[step]
        obj[path[-1]] = old + rng.choice((-1, 1, 7))
        return f"node {pos}: params.{'.'.join(map(str, path))} {old} -> {obj[path[-1]]}"
    key, old = rng.choice(str_leaves)  # every rule's params hold an integer or a string
    target[key] = old + "_x"
    return f"node {pos}: params.{key} {old!r} edited"


def test_acceptance_8_mutation_robustness():
    """200 random single-field mutations each trigger at least one
    verifier violation; a stray key on a node is named as a ``format``
    violation on that key."""
    t0 = time.perf_counter()
    rng = random.Random(0xBD15)
    base_docs = [
        bs.derive_technical(3, 2).to_json(),
        bs.derive_main(4, 3).to_json(),
        bs.derive_kg(5, 4).to_json(),
        bs.derive_technical(5, 3).to_json(),
    ]
    result = sweeps.SweepResult("mutations")
    stray_mutations = 0
    while result.checked < 200:
        doc = json.loads(rng.choice(base_docs))
        desc = _mutate_once(doc, rng)
        result.checked += 1
        violations = bs.verify(bs.certificate_from_json_dict(doc), exhaustive_max_genus=4)
        if not violations:
            result.violations.append(f"undetected mutation: {desc}")
        elif strays := [(f"nodes[{i}]", "stray") for i, n in enumerate(doc["nodes"]) if "stray" in n]:
            stray_mutations += 1
            if [(v.field, v.claimed) for v in violations if v.rule == "format"] != strays:
                result.violations.append(f"stray key not named: {desc}")
    result.elapsed = time.perf_counter() - t0
    _report(8, "mutation-robustness", result, 120.0)
    assert stray_mutations > 0


def test_acceptance_9_nerve_join_homology():
    """Join dimension formula (500 random pairs), one-sided nerve
    containment (500 random families), sphere homology of joins of
    simplex boundaries for all part sums <= 7, and 1-D Helly on 500
    random interval families."""
    t0 = time.perf_counter()
    rng = random.Random(0x5EED)
    result = sweeps.SweepResult("nerve-join-homology")

    def random_complex(tag):
        n_verts = rng.randint(1, 6)
        verts = [f"{tag}{i}" for i in range(n_verts)]
        faces = [
            rng.sample(verts, rng.randint(1, n_verts))
            for _ in range(rng.randint(1, 4))
        ]
        return nc.SimplicialComplex(faces)

    for _ in range(500):
        k1, k2 = random_complex("u"), random_complex("v")
        result.checked += 1
        if nc.join(k1, k2).dim != k1.dim + k2.dim + 1:
            result.violations.append(f"join dim formula fails: {k1!r} * {k2!r}")

    for _ in range(500):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        fam1 = [frozenset(rng.sample(range(8), rng.randint(0, 5))) for _ in range(n1)]
        fam2 = [frozenset(rng.sample(range(8), rng.randint(0, 5))) for _ in range(n2)]
        result.checked += 1
        union_nerve = nc.nerve(fam1 + fam2)
        nerve1 = nc.nerve(fam1)
        nerve2 = nc.nerve(fam2)
        ok = True
        for m in union_nerve.maximal_faces:
            left = frozenset(v for v in m if v < n1)
            right = frozenset(v - n1 for v in m if v >= n1)
            if not (nerve1.has_simplex(left) and nerve2.has_simplex(right)):
                ok = False
        if not ok:
            result.violations.append(f"one-sided containment fails: {fam1} {fam2}")

    for parts, _, sphere in nc.sphere_joins(nc.compositions(7)):
        result.checked += 1
        if not sphere:
            result.violations.append(f"join of simplex boundaries {parts} is not a sphere")

    for _ in range(500):
        n = rng.randint(2, 7)
        fam = []
        for _ in range(n):
            a = rng.randint(0, 12)
            fam.append(frozenset(range(a, a + rng.randint(0, 6) + 1)))
        result.checked += 1
        nv = nc.nerve(fam)
        if all(nv.has_simplex({i, j}) for i in range(n) for j in range(i + 1, n)):
            if not nv.has_simplex(range(n)):
                result.violations.append(f"1-D Helly fails for {sorted(map(sorted, fam))}")

    result.elapsed = time.perf_counter() - t0
    _report(9, "nerve-join-homology", result, 120.0)
