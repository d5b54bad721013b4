"""Command-line behaviour: exit codes, reports, byte-stable JSON output."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcert import bootstrap as bs
from twistcert import cli
from twistcert import lickorish as lk
from twistcert import surface as sf
from twistcert import sweeps
from twistcert.bootstrap import EXHAUSTIVE_HARD_CAP
from twistcert.cli import main


def run_cli(*argv):
    """Run in-process, capturing stdout via subprocess for byte fidelity."""
    proc = subprocess.run(
        [sys.executable, "-m", "twistcert.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_lemma_count_passes():
    assert main(["lemma", "count", "--genus-min", "1", "--genus-max", "500"]) == 0


def test_lemma_goodchains_small():
    assert main(["lemma", "goodchains", "--genus-min", "2", "--genus-max", "3"]) == 0


def test_lemma_fit():
    assert main(["lemma", "fit", "--genus-min", "1", "--genus-max", "8"]) == 0


@pytest.mark.parametrize("title", [
    "lemma goodchains", "lemma badchains", "lemma size", "lemma fit", "lemma count",
    "nerve helly1d", "nerve sphere-joins",
])
def test_human_report_title_names_the_sweep(capsys, title):
    command, name = title.split()
    assert main([command, name, "--genus-max", "3"] if command == "lemma" else [command, "--demo", name]) == 0
    assert capsys.readouterr().out.startswith(f"{title}: PASS (")


def test_certify_then_check_round_trip(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--genus", "3", "--dim", "2", "--theorem", "technical",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert main(["check", str(out)]) == 0


def test_certify_failure_exit_code(capsys):
    code = main(["certify", "--genus", "3", "--dim", "3", "--theorem", "main"])
    assert code == 1
    assert "DIM_TOO_LARGE" in capsys.readouterr().out


def test_check_rejects_tampered_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    node = next(n for n in doc["nodes"] if n["rule"] == "connected_bootstrap")
    node["params"]["pack_ell"] += 1
    out.write_text(json.dumps(doc))
    code = main(["check", str(out)])
    assert code == 1
    assert "violation" in capsys.readouterr().out


def test_check_missing_file_is_usage_error():
    assert main(["check", "/nonexistent/cert.json"]) == 2


def test_classify_set(capsys):
    assert main(["classify", "--genus", "3", "--set", "a2,b2,g1,g2"]) == 0
    assert "genus <= 1" in capsys.readouterr().out


@pytest.mark.parametrize("genus, curves, case", [
    (400, "g199,b200,a200,g200,b201", "interval:[g199,b201]:m=4"),
    (2, "a1,b1", "chain-even"),
    (3, "b1,g1,b2", "chain-odd"),
    (2, "a1,b1,g1,b2,a2", "chain-odd-separating"),
])
def test_classify_set_names_its_case(genus, curves, case, capsys):
    # the case is built at the output edge, from the window or the chain's claim
    assert main(["classify", "--genus", str(genus), "--set", curves, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["claim"]["case"] == case
    assert main(["classify", "--genus", str(genus), "--set", curves]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(f" [{case}]")


def test_classify_all_json(capsys):
    assert main(["classify", "--genus", "2", "--all", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checked"] == 15
    assert doc["pass"] is True


def test_scans_report_a_disconnected_enumerated_subset(monkeypatch, capsys):
    # the enumerator also yields {a1, a2}: classify --all, the size sweep and
    # exhaustive coverage each cross-check it and report it
    original = lk.connected_masks
    monkeypatch.setattr(lk, "connected_masks", lambda g: sorted(original(g) + [0b11]))
    assert main(["classify", "--genus", "3", "--all", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == ["['a1', 'a2']: enumerated subset is disconnected"]
    assert doc["checked"] == 45 and doc["pass"] is False
    result = sweeps.sweep_size_soundness(3, 3)
    assert result.violations == ["g=3 ['a1', 'a2']: enumerated subset is disconnected"]
    assert result.checked == 45
    violations, counted = bs._exhaustive_coverage(bs.derive_technical(3, 2))
    assert [(v.field, v.claimed, v.message) for v in violations] == [
        ("enumerator", ["a1", "a2"], "enumerated subset is disconnected")
    ]
    assert counted == 30


def test_scans_report_a_classifier_failure(tmp_path, monkeypatch, capsys):
    # size_classify raises for {a1, b1, g1}: classify --all, lemma size and
    # check each report the classifier's message and count the subset
    cert = tmp_path / "c3.json"
    assert main(["certify", "--genus", "3", "--dim", "2", "--out", str(cert)]) == 0
    capsys.readouterr()
    original = lk.size_classify

    def size_classify(s):
        if s.mask == lk.CurveSet.of(3, ["a1", "b1", "g1"]).mask:
            raise lk.LickorishError("forced failure")
        return original(s)

    monkeypatch.setattr(lk, "size_classify", size_classify)
    assert main(["classify", "--genus", "3", "--all", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == ["['a1', 'b1', 'g1']: classifier failed: forced failure"]
    assert doc["checked"] == 45 and sum(doc["claims"].values()) == 44
    assert main(["lemma", "size", "--genus-min", "3", "--genus-max", "3", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == ["g=3 ['a1', 'b1', 'g1']: classifier failed: forced failure"]
    assert doc["checked"] == 45
    assert main(["check", str(cert), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == ["node -1 [coverage] classifier: classifier failed: forced failure "
                                 "(claimed ['a1', 'b1', 'g1'], recomputed None)"]
    assert doc["coverage"] == {"connected_subsets": 30, "max_genus": EXHAUSTIVE_HARD_CAP, "mode": "exhaustive"}


@pytest.mark.parametrize("argv", [
    ("size", "--genus-min", "0", "--genus-max", "1", "--json"),
    ("count", "--genus-min", "-3", "--genus-max", "0"),
    ("goodchains", "--genus-min", "1", "--genus-max", "1"),
])
def test_lemma_run_that_checks_nothing_is_usage_error(argv, capsys):
    # no genus in the range is one the sweep covers: nothing is checked,
    # so the run proves nothing and must not pass
    assert main(["lemma", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_refuses_a_genus_over_the_limit_before_building_a_mask(monkeypatch, capsys):
    def build(*args):
        raise AssertionError("built a curve set")

    g = cli.MAX_CERTIFY_GENUS
    assert main(["classify", "--genus", str(g), "--set", "a1,b1,g1,b2"]) == 0
    assert f"classify g={g} a1,b1,b2,g1:" in capsys.readouterr().out
    monkeypatch.setattr(lk.CurveSet, "__new__", build)
    monkeypatch.setattr(lk, "classified_subsets", build)
    for argv in (["--set", "a1"], ["--all"], ["--set", "a1", "--json"]):
        assert main(["classify", "--genus", str(g + 1), *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: genus {g + 1} exceeds {g}, the largest genus certify derives\n"


def test_out_of_memory_inside_a_command_is_one_error_line(monkeypatch, capsys):
    def exhaust(s):
        raise MemoryError

    monkeypatch.setattr(lk, "size_classify", exhaust)
    assert main(["classify", "--genus", "3", "--set", "a1,b1,g1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory running classify\n"


def test_classify_rejects_disconnected():
    assert main(["classify", "--genus", "3", "--set", "a1,a2"]) == 2


def test_classify_rejects_non_canonical_curve_id(capsys):
    assert main(["classify", "--genus", "12", "--set", "a1_0,b1_0"]) == 2
    assert "bad curve id 'a1_0'" in capsys.readouterr().err


def test_check_accepts_a_dim_zero_certificate(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--genus", "3", "--dim", "0", "--theorem", "technical", "--out", str(out)]) == 0
    assert main(["check", str(out)]) == 0


def test_usage_error_exit_code():
    proc = run_cli("lemma", "nosuchlemma")
    assert proc.returncode == 2


def test_json_outputs_byte_stable():
    a = run_cli("lemma", "goodchains", "--genus-min", "2", "--genus-max", "3", "--json")
    b = run_cli("lemma", "goodchains", "--genus-min", "2", "--genus-max", "3", "--json")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["pass"] is True and "wall" not in a.stdout


def test_json_certify_byte_stable():
    a = run_cli("certify", "--genus", "4", "--dim", "3", "--theorem", "kg", "--json")
    b = run_cli("certify", "--genus", "4", "--dim", "3", "--theorem", "kg", "--json")
    assert a.returncode == 0 and a.stdout == b.stdout


def test_certificate_files_byte_stable(tmp_path):
    f1, f2 = tmp_path / "c1.json", tmp_path / "c2.json"
    run_cli("certify", "--genus", "4", "--dim", "3", "--out", str(f1))
    run_cli("certify", "--genus", "4", "--dim", "3", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_nerve_demos():
    assert main(["nerve", "--demo", "helly1d"]) == 0
    assert main(["nerve", "--demo", "sphere-joins"]) == 0


@pytest.mark.parametrize("argv,err", [
    (["lemma", "size", "--genus-min", "4", "--genus-max", "3"], "error: --genus-min exceeds --genus-max\n"),
    (["certify", "--genus", "1", "--dim", "0"], "error: genus must be an integer >= 2, got 1\n"),
    (["classify", "--genus", "3", "--set", "x1"], "error: bad curve id 'x1'\n"),
    (["classify", "--genus", "3", "--set", "a"], "error: bad curve id 'a'\n"),
], ids=["genus-range", "certify-genus-1", "classify-x1", "classify-a"])
def test_usage_errors_are_one_line_with_exit_2(capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


def test_certify_to_an_unwritable_path_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "no-such-directory" / "cert.json"
    assert main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: cannot write {out}: ") and captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_helly1d_demo_reports_an_incomplete_nerve(monkeypatch, capsys):
    # a nerve that holds every pair but never all of three or more intervals
    families = []

    class PairsOnly:
        def __init__(self, family):
            families.append(family)

        def has_simplex(self, simplex):
            return len(list(simplex)) <= 2

    monkeypatch.setattr(cli.nc, "nerve", PairsOnly)
    assert main(["nerve", "--demo", "helly1d", "--json"]) == 1
    want = [f"family {sorted(map(sorted, fam))}: 1-skeleton full but nerve incomplete"
            for fam in families if len(fam) >= 3]
    assert len(families) == 500 and want
    assert json.loads(capsys.readouterr().out)["violations"] == want


def test_sphere_joins_demo_reports_a_join_that_is_no_sphere(monkeypatch, capsys):
    first = []
    original = cli.nc.sphere_joins

    def joins(compositions):
        for parts, joined, sphere in original(compositions):
            first.append((parts, joined))
            yield parts, joined, sphere and len(first) > 1

    monkeypatch.setattr(cli.nc, "sphere_joins", joins)
    assert main(["nerve", "--demo", "sphere-joins", "--json"]) == 1
    parts, joined = first[0]
    assert json.loads(capsys.readouterr().out)["violations"] == [
        f"join of boundaries {parts}: not a homology {sum(parts) - 1}-sphere (betti {cli.nc.betti_z2(joined)})"]


def test_genus_two_certificate_round_trip(tmp_path):
    out = tmp_path / "g2.json"
    assert main(["certify", "--genus", "2", "--dim", "1", "--theorem", "kg",
                 "--out", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert main(["certify", "--genus", "2", "--dim", "2"]) == 1


def test_exhaustive_cap_warning(tmp_path, capsys):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    assert main(["check", str(out), "--exhaustive-max-genus", str(EXHAUSTIVE_HARD_CAP + 1)]) == 0
    assert "capped" in capsys.readouterr().err


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced, as on Linux")
def test_out_of_memory_is_one_error_line_with_exit_2():
    # the child alone runs under a 400 MB address-space limit; genus 4,000
    # is inside the classify bound, and connected_masks grows its list of
    # ~12,000-bit masks until an allocation fails
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (400_000_000, 400_000_000)); "
            "from twistcert.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, "classify", "--genus", "4000", "--all"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory running classify\n"


def test_check_reports_coverage_mode(tmp_path, capsys):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    a = run_cli("check", str(out), "--json")
    b = run_cli("check", str(out), "--json")
    assert a.returncode == 0 and a.stdout == b.stdout
    # 45 connected subsets at genus 3, less 8 singletons and 7 crossing pairs
    assert json.loads(a.stdout)["coverage"] == {"mode": "exhaustive", "max_genus": 15, "connected_subsets": 30}
    capsys.readouterr()
    assert main(["check", str(out), "--exhaustive-max-genus", "2"]) == 0
    assert "coverage: schema-only" in capsys.readouterr().out



def test_check_counts_every_uncovered_subset_past_the_listed_violations(tmp_path, monkeypatch, capsys):
    # no connected_bootstrap node of size 3 or 4: 32 subsets at genus 5 are
    # uncovered; the inventory check is bypassed so that coverage runs
    cert = bs.derive_technical(5, 4)
    nodes = tuple(n for n in cert.nodes if not (n["rule"] == "connected_bootstrap" and n["params"]["size"] in (3, 4)))
    out = tmp_path / "cert.json"
    out.write_text(cert._replace(nodes=nodes).to_json())
    monkeypatch.setattr(bs, "_check_inventory", lambda cert: [])
    assert main(["check", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    listed = [line.startswith("  violation: node -1 [coverage] connected:") for line in lines[2:23]]
    assert listed == [True] * 20 + [False]
    assert lines[22] == "  ... and 12 more"
    assert main(["check", str(out), "--json"]) == 1
    assert len(json.loads(capsys.readouterr().out)["violations"]) == 21


def test_check_coverage_not_run_when_verification_stops_early(tmp_path):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    out.write_text(json.dumps(_set(("header", "version"), "0.1.0")(json.loads(out.read_text()))))
    a = run_cli("check", str(out), "--json")
    assert a.returncode == 1
    report = json.loads(a.stdout)
    assert len(report["violations"]) == 1
    assert report["coverage"] == {"mode": "not-run", "max_genus": 15}
    human = run_cli("check", str(out)).stdout
    assert "coverage: not run" in human
    assert "exhaustive up to" not in human


def test_check_rejects_huge_header_genus_quickly(tmp_path, capsys):
    # the node count is compared in closed form before any inventory is built
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    out.write_text(json.dumps(_set(("header", "genus"), 10**6)(json.loads(out.read_text()))))
    capsys.readouterr()
    t0 = time.perf_counter()
    code = main(["check", str(out), "--json"])
    elapsed = time.perf_counter() - t0
    assert code == 1 and elapsed < 1.0
    assert json.loads(capsys.readouterr().out)["violations"] == [
        "node -1 [inventory] node_count: wrong number of nodes (claimed 38, recomputed 14999993)"]


def test_cli_import_leaves_numpy_out():
    code = "import sys, twistcert.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # dataclasses imports inspect, ast, dis and tokenize: ~20 ms of start-up per command
    code = "import sys, twistcert.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


@pytest.mark.parametrize("module", ["lickorish", "surface", "nervecplx", "bootstrap", "sweeps", "cli"])
def test_module_imports_alone(module):
    proc = subprocess.run([sys.executable, "-c", f"import twistcert.{module}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_import_loads_no_layer():
    code = "import sys, twistcert; print(sorted(m for m in sys.modules if m.startswith('twistcert.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


LAYERS = ("lickorish", "surface", "bootstrap", "sweeps", "nervecplx")


def _layers_after(*argv):
    """In a fresh process that imports the CLI and, given argv, runs it:
    the layers in sys.modules, and those whose code has executed (a lazy
    module not yet read is a subclass of ModuleType)."""
    code = ("import contextlib, io, sys, types, twistcert.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "    sys.argv[1:] and cli.main(sys.argv[1:])\n"
            f"mods = [(n, sys.modules.get('twistcert.' + n)) for n in {LAYERS!r}]\n"
            "print(' '.join(n for n, m in mods if m is not None))\n"
            "print(' '.join(n for n, m in mods if type(m) is types.ModuleType))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    registered, executed = proc.stdout.split("\n")[:2]
    return registered.split(), set(executed.split())


def test_cli_import_registers_every_layer_and_executes_none():
    # perfbench/trace_cli.py looks each layer up in sys.modules after importing the CLI
    assert _layers_after() == (list(LAYERS), set())


@pytest.mark.parametrize("argv, executed", [
    (["--version"], set()),
    (["classify", "--genus", "400", "--set", "a200,b200,g199,g200"], {"lickorish"}),
    (["nerve", "--demo", "helly1d"], {"nervecplx"}),
    (["nerve", "--demo", "sphere-joins"], {"nervecplx"}),
    (["classify", "--genus", "4", "--all"], {"lickorish"}),
    (["certify", "--genus", "3", "--dim", "2"], {"lickorish", "bootstrap"}),
    (["check", "CERT"], {"lickorish", "surface", "bootstrap"}),
    (["lemma", "size", "--genus-max", "3"], {"lickorish", "surface", "sweeps"}),
    (["lemma", "goodchains", "--genus-max", "3"], {"lickorish", "surface", "sweeps"}),
    (["lemma", "count", "--genus-max", "3"], {"sweeps", "bootstrap"}),
    (["lemma", "fit", "--genus-max", "3"], {"sweeps", "surface"}),
])
def test_each_command_executes_only_the_layers_it_runs(tmp_path, argv, executed):
    cert = tmp_path / "cert.json"
    cert.write_text(bs.derive_technical(3, 2).to_json())
    assert _layers_after(*[str(cert) if a == "CERT" else a for a in argv]) == (list(LAYERS), executed)


def test_out_of_memory_in_nerve_is_one_error_line_without_lickorish():
    code = ("import sys, types, twistcert.cli as cli\n"
            "def exhaust(family):\n"
            "    raise MemoryError\n"
            "cli.nc.nerve = exhaust\n"
            "code = cli.main(['nerve', '--demo', 'helly1d'])\n"
            "print(type(sys.modules['twistcert.lickorish']) is types.ModuleType)\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == "False\n"
    assert proc.stderr == "error: out of memory running nerve\n"


def _option(command, dest):
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in subparsers.choices[command]._actions if a.dest == dest)


def test_cli_names_match_the_tables_they_restate():
    # the CLI spells these out so that building its parser executes no layer
    assert _option("certify", "theorem").choices == [t.value for t in bs.Theorem]
    assert _option("lemma", "which").choices == cli._LEMMAS
    for name in cli._LEMMAS:
        sweep = cli._lemma_sweep(name)
        assert sweep.__name__.startswith("sweep_") and getattr(sweeps, sweep.__name__) is sweep, name


def test_check_deeply_nested_file_is_load_error(tmp_path):
    # 200 KB, far under the byte limit, but the JSON parser recurses once per bracket
    out = tmp_path / "deep.json"
    out.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("check", str(out))
    assert proc.returncode == 2
    assert "cannot load certificate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_refuses_a_file_over_the_byte_limit(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    size = out.stat().st_size
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_CERTIFICATE_BYTES", size)
    assert main(["check", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    monkeypatch.setattr(cli, "MAX_CERTIFICATE_BYTES", size - 1)
    assert main(["check", str(out), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: cannot load certificate {out}: file exceeds {size - 1} bytes\n"


@pytest.mark.parametrize("argv", [("--genus", "1", "--dim", "0"), ("--genus", "3", "--dim", "-1")])
def test_certify_bad_genus_or_dim_is_usage_error(argv):
    proc = run_cli("certify", *argv)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_certify_negative_dim_is_one_error_line_in_process(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["certify", "--genus", "3", "--dim", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dim must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("genus", ["-1", "0", "1"])
def test_classify_all_below_genus_2_is_usage_error(genus):
    proc = run_cli("classify", "--genus", genus, "--all", "--json")
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == f"error: genus must be an integer >= 2, got {genus}\n"


def test_certify_writes_nodes_of_exactly_rule_params_premises(tmp_path):
    out = tmp_path / "cert.json"
    for theorem in bs.Theorem:
        for g in range(2, 7):
            assert main(["certify", "--genus", str(g), "--dim", "1", "--theorem", theorem.value,
                         "--out", str(out)]) == 0
            nodes = json.loads(out.read_text())["nodes"]
            assert nodes and all(sorted(n) == ["params", "premises", "rule"] for n in nodes), (theorem, g)


def test_certify_genus_limit_is_the_largest_file_check_reads():
    # the file grows with the digits of dim, so g - 1 gives the largest at g
    g = cli.MAX_CERTIFY_GENUS
    for derive in (bs.derive_technical, bs.derive_main, bs.derive_kg):
        assert len(derive(g, g - 1).to_json().encode()) <= cli.MAX_CERTIFICATE_BYTES
    # kg with a one-digit dim is the smallest file at g + 1
    assert len(bs.derive_kg(g + 1, 0).to_json().encode()) > cli.MAX_CERTIFICATE_BYTES


def test_certify_refuses_a_genus_over_the_limit_before_deriving(tmp_path, monkeypatch, capsys):
    def derive(g, dim):
        raise AssertionError(f"derived genus {g}")

    for name in ("derive_technical", "derive_main", "derive_kg"):
        monkeypatch.setattr(bs, name, derive)
    out = tmp_path / "cert.json"
    for genus in (cli.MAX_CERTIFY_GENUS + 1, 10**8):
        assert main(["certify", "--genus", str(genus), "--dim", "0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: genus {genus} exceeds {cli.MAX_CERTIFY_GENUS}: ")
    assert not out.exists()


def _set(path, value):
    def edit(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return doc
    return edit


@pytest.mark.parametrize("probe", [
    _set(("nodes", 3, "premises"), "x"),
    _set(("nodes", 3, "rule"), None),
    _set(("conclusion",), []),
    _set(("nodes", 3, "params"), []),
    lambda doc: [doc],
    _set(("nodes", 8, "params", "claim_boundary"), True),  # a size-3 node's boundary is 1, and True == 1
    _set(("nodes", 8, "params", "size"), 3.0),
    _set(("nodes", 8, "params", "size"), {"k": 3.0}),
], ids=["premises-string", "rule-null", "conclusion-list", "params-list", "top-level-list",
        "params-true-for-1", "params-fraction-for-int", "params-nested-fraction"])
def test_check_malformed_certificate_is_load_error(tmp_path, probe):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    out.write_text(json.dumps(probe(json.loads(out.read_text()))))
    proc = run_cli("check", str(out))
    assert proc.returncode == 2
    assert "cannot load certificate" in proc.stderr
    assert "Traceback" not in proc.stderr


def _delete(path):
    def edit(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        del target[path[-1]]
        return doc
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda doc: [doc], "certificate: expected an object, got list"),
    (_delete(("nodes",)), "certificate: missing 'nodes'"),
    (_set(("axioms",), {}), "certificate.axioms: expected list, got dict"),
    (_delete(("header", "version")), "header: missing 'version'"),
    (_set(("header", "genus"), True), "header.genus: expected int, got bool"),
    (_set(("nodes", 3), 7), "nodes[3]: expected an object, got int"),
    (_delete(("nodes", 3, "rule")), "nodes[3]: missing 'rule'"),
    (_set(("nodes", 3, "rule"), 3), "nodes[3].rule: expected str, got int"),
    (_delete(("conclusion", "form")), "conclusion: missing 'form'"),
    (_set(("conclusion", "form"), 1), "conclusion.form: expected str, got int"),
], ids=["document-not-object", "document-missing", "document-type", "header-missing", "header-type",
        "node-not-object", "node-missing", "node-type", "conclusion-missing", "conclusion-type"])
def test_check_load_error_names_the_defect(tmp_path, capsys, edit, message):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    out.write_text(json.dumps(edit(json.loads(out.read_text()))))
    capsys.readouterr()
    assert main(["check", str(out), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot load certificate {out}: {message}\n"


def _as_format_0_4_0(doc):
    """The same certificate as format 0.4.0 wrote it: each node's
    position as its ``id``, and an empty ``witnesses``."""
    doc["header"]["version"] = "0.4.0"
    for pos, node in enumerate(doc["nodes"]):
        node.update(id=pos, witnesses={})
    return doc


def test_check_names_format_0_4_0_file(tmp_path):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    out.write_text(json.dumps(_as_format_0_4_0(json.loads(out.read_text()))))
    proc = run_cli("check", str(out), "--json")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["violations"] == [
        "node -1 [header] version: unsupported certificate format version (claimed '0.4.0', recomputed '0.5.0')"]


def _as_format_0_2_0(doc):
    """The same certificate as format 0.2.0 wrote it: a judgment on every
    node and the full plan of every packing it names."""
    for node in _as_format_0_4_0(doc)["nodes"]:
        node["judgment"] = bs.judgment(node)
        if node["rule"] in ("genus1_step", "connected_bootstrap"):
            kind, ell = node["params"].get("pack_kind", "fit1"), node["params"].get("pack_ell", 1)
            plan = sf.pack_subsurfaces(doc["header"]["genus"], kind, ell)
            node["witnesses"]["packing"] = {"pieces": [list(p) for p in plan.pieces],
                                            "gluings": [list(gl) for gl in plan.gluings],
                                            "marked": list(plan.marked_pieces)}
    doc["header"]["version"] = "0.2.0"
    return doc


def test_check_names_format_0_2_0_file(tmp_path):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    out.write_text(json.dumps(_as_format_0_2_0(json.loads(out.read_text()))))
    proc = run_cli("check", str(out), "--json")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["violations"] == [
        "node -1 [header] version: unsupported certificate format version (claimed '0.2.0', recomputed '0.5.0')"]


def _format_0_3_0_fields(doc):
    """(position, part, key, value) for each field format 0.3.0 stored
    and 0.4.0 derives: the bootstrap's n and k, and its count, dim and
    torsion witnesses."""
    g, dim = doc["header"]["genus"], doc["header"]["dim"]
    for pos, node in enumerate(doc["nodes"]):
        p = node["params"]
        if node["rule"] == "genus1_step":
            yield pos, "params", "n", g
            yield pos, "params", "k", 1
            yield pos, "witnesses", "torsion_bootstrap", {"n": g, "k": 1, "bound": g, "dim": dim}
        elif node["rule"] == "connected_bootstrap":
            n, k = sf.pack_count(g, p["pack_kind"], p["pack_ell"]), p["size"] - 1
            lhs = bs.count_inequality(g, p["size"]) if p["size"] <= 2 * g else None
            yield pos, "params", "n", n
            yield pos, "params", "k", k
            yield pos, "witnesses", "count", ({"k": None, "lhs": n * k, "rhs": g} if lhs is None
                                              else {"k": p["size"], "lhs": lhs, "rhs": g})
            yield pos, "witnesses", "dim_check", {"dim": dim, "bound": n * k}


def test_check_names_format_0_3_0_file(tmp_path):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    fields = list(_format_0_3_0_fields(doc))
    _as_format_0_4_0(doc)["header"]["version"] = "0.3.0"
    for pos, part, key, value in fields:
        doc["nodes"][pos][part][key] = value
    out.write_text(json.dumps(doc))
    proc = run_cli("check", str(out), "--json")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["violations"] == [
        "node -1 [header] version: unsupported certificate format version (claimed '0.3.0', recomputed '0.5.0')"]


def test_check_names_each_field_format_0_4_0_dropped():
    # an n or k fails the params comparison; a witness is a key outside format 0.5.0
    doc = json.loads(bs.derive_technical(3, 2).to_json())
    fields = list(_format_0_3_0_fields(doc))
    assert len(fields) == 3 + 4 * sum(n["rule"] == "connected_bootstrap" for n in doc["nodes"])
    for pos, part, key, value in fields:
        mutant = json.loads(json.dumps(doc))
        mutant["nodes"][pos].setdefault(part, {})[key] = value
        violations = bs.verify(bs.certificate_from_json_dict(mutant))
        want = (pos, "params", None) if part == "params" else (-1, f"nodes[{pos}]", "witnesses")
        assert [(v.node_id, v.field, v.claimed if v.rule == "format" else None) for v in violations] == [want], (
            pos, key)


@pytest.mark.parametrize("where,key,edit", [
    ("nodes[37]", "judgment", _set(("nodes", 37, "judgment"), {"form": "Elliptic", "curves": ["a1"]})),
    ("header", "note", _set(("header", "note"), "x")),
    ("certificate", "note", _set(("note",), 1)),
    ("nodes[3]", "note", _set(("nodes", 3, "note"), [])),
    ("nodes[8]", "id", _set(("nodes", 8, "id"), 8)),  # format 0.4.0's fields
    ("nodes[8]", "witnesses", _set(("nodes", 8, "witnesses"), {})),
], ids=["false-judgment", "header-key", "top-level-key", "node-key", "node-id", "node-witnesses"])
def test_check_names_keys_outside_the_format(tmp_path, capsys, where, key, edit):
    out = tmp_path / "cert.json"
    main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["nodes"][37]["rule"] == "conclude"
    out.write_text(json.dumps(edit(doc)))
    capsys.readouterr()
    assert main(["check", str(out), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == [
        f"node -1 [format] {where}: key outside the certificate format (claimed {key!r}, recomputed None)"]


def _json_paths(doc, path=()):
    """Every path into a JSON document, the root () included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for step, value in items:
        yield from _json_paths(value, path + (step,))


_SCALARS = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=6),
}
_JSON_VALUES = {
    **_SCALARS,
    list: st.lists(st.one_of(*_SCALARS.values()), max_size=3),
    dict: st.dictionaries(st.text(max_size=6), st.one_of(*_SCALARS.values()), max_size=3),
}


@pytest.fixture(scope="module")
def g3_certificate(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--genus", "3", "--dim", "2", "--out", str(out)]) == 0
    return out, json.loads(out.read_text())


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@settings(derandomize=True, max_examples=300, deadline=5000)
@given(data=st.data())
def test_check_answers_every_json_mutant(g3_certificate, data):
    # delete a key or item, add a key, or give a value another JSON type,
    # anywhere in the file: check names a violation or refuses to load,
    # and passes only the unchanged document
    out, original = g3_certificate
    doc = json.loads(json.dumps(original))
    op = data.draw(st.sampled_from(["delete", "add", "retype"]))
    paths = list(_json_paths(doc))
    if op == "delete":
        path = data.draw(st.sampled_from(paths[1:]))
        del _at(doc, path[:-1])[path[-1]]
    else:
        if op == "add":
            path = data.draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p), dict)]))
            path += (data.draw(st.text(max_size=6)),)
            kinds = list(_JSON_VALUES)
        else:
            path = data.draw(st.sampled_from(paths))
            kinds = [k for k in _JSON_VALUES if k is not type(_at(doc, path))]
        value = data.draw(_JSON_VALUES[data.draw(st.sampled_from(kinds))])
        if path:
            _at(doc, path[:-1])[path[-1]] = value
        else:
            doc = value
    mutant = out.with_name("mutant.json")
    mutant.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", str(mutant), "--json"])
    unchanged = json.dumps(doc, sort_keys=True) == json.dumps(original, sort_keys=True)
    assert code == 0 if unchanged else code in (1, 2), (op, path, code)
