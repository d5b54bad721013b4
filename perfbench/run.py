"""twistcert benchmark: time to a verdict from the real command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a fixed list of CLI commands, run as child
processes one at a time (a closed loop with one client) with
``TWISTCERT_WORKERS=1``.  The workload is repeated while the next
repetition still fits in ``--seconds``; timings are medians over the
repetitions.  The seed only
chooses which field of the genus-7 certificate the known-bad mutation
changes.

Every command's exit code and ``--json`` verdict is checked against an
answer worked out here, independently of the package: subtree counts of
the intersection graph for the size sweep, composition and trial counts
for the nerve demos, PASS for every emitted certificate and a rejection
(exit 1) for the mutated one.  Repeated commands must print identical
stdout and ``certify`` must write identical bytes.  Any mismatch counts
as a failed command.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions (``trace_cli.py`` wraps the layer
functions) and reports the per-layer metrics, after checking that every
wrapped function was called exactly on the workloads predicted below.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the raw samples and
the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / str(os.getpid())  # scratch files of this run only

SETUP_EVERY_S = 1.5  # one setup spawn per this much workload wall time
CHILD_TIMEOUT_S = 150.0
MEASUREMENT_LIMITS = (
    "process-level timers and rusage only: no machine-wide tracing, no page-cache "
    "dropping; shared machine, so figures carry other tenants' load"
)


def load_spec() -> dict:
    """BENCHMARK.json: workload names and the declared metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# independent answers


def subtree_count(g: int) -> int:
    """Connected curve subsets at genus g, counted as the subtrees of the
    caterpillar intersection graph b1-g1-b2-...-bg with a pendant a_i on
    each b_i.  Walks the spine from bg back to b1: a subtree whose
    leftmost spine vertex is v extends right or stops, and at a b-vertex
    takes its pendant or not."""
    spine = [kind for i in range(1, g + 1) for kind in (("b",) if i == g else ("b", "g"))]
    total, rooted_right = 0, 0
    for kind in reversed(spine):
        rooted = 1 + rooted_right
        if kind == "b":
            rooted *= 2
            total += 1  # the pendant a_i alone
        total += rooted
        rooted_right = rooted
    return total


def curve_names(g: int) -> list[str]:
    return [f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)] + [
        f"g{i}" for i in range(1, g)
    ]


SIZE_SWEEP_GENERA = range(2, 8)
SPHERE_JOIN_PARTS = 7  # compositions of 1..7: 2^7 - 1 joins
HELLY_TRIALS = 500


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Step:
    key: str
    args: tuple[str, ...]
    exit_code: int = 0
    expect: dict = field(default_factory=dict)  # payload fields with fixed values
    writes: Optional[str] = None  # certificate file the command writes
    role: Optional[str] = None  # "certify" (write side) or "check" (read side of a valid certificate)


def _workload_steps(name: str) -> list[Step]:
    if name == "size-sweep":
        lo, hi = SIZE_SWEEP_GENERA[0], SIZE_SWEEP_GENERA[-1]
        return [Step(
            "lemma-size",
            ("lemma", "size", "--genus-min", str(lo), "--genus-max", str(hi), "--json"),
            expect={"pass": True, "violations": [], "checked": sum(map(subtree_count, SIZE_SWEEP_GENERA)),
                    "lemma": "size", "genus_min": lo, "genus_max": hi},
        )]
    if name == "check-exhaustive":
        return [
            _certify(7, 6),
            _check(7, 6, ("--exhaustive-max-genus", "7")),
            Step("check-bad", ("check", "bad.json", "--exhaustive-max-genus", "7", "--json"),
                 exit_code=1, expect={"pass": False, "genus": 7, "dim": 6}),
        ]
    if name == "cert-schema":
        return [
            _certify(400, 399),
            _check(400, 399, ()),  # schema-only: above the exhaustive bound
        ]
    if name == "nerve-demos":
        return [
            Step("sphere-joins", ("nerve", "--demo", "sphere-joins", "--json"),
                 expect={"pass": True, "violations": [], "checked": 2 ** SPHERE_JOIN_PARTS - 1}),
            Step("helly1d", ("nerve", "--demo", "helly1d", "--json"),
                 expect={"pass": True, "violations": [], "checked": HELLY_TRIALS}),
        ]
    raise KeyError(name)


def _certify(g: int, dim: int) -> Step:
    return Step(
        "certify",
        ("certify", "--genus", str(g), "--dim", str(dim), "--out", "cert.json", "--json"),
        expect={"pass": True, "genus": g, "dim": dim, "theorem": "technical", "out": "cert.json"},
        writes="cert.json",
        role="certify",
    )


def _check(g: int, dim: int, extra: tuple[str, ...]) -> Step:
    return Step("check", ("check", "cert.json", *extra, "--json"),
                expect={"pass": True, "violations": [], "genus": g, "dim": dim}, role="check")


# Workloads on which each wrapped function must be called; on every other
# workload it must report 0 calls.  Functions absent here are never
# called by any workload.
PREDICTED_CALLS = {
    "lickorish.is_connected_mask": {"size-sweep", "check-exhaustive"},
    "lickorish.size_classify": {"size-sweep", "check-exhaustive"},
    "lickorish.enclosing_interval": {"size-sweep", "check-exhaustive"},
    "lickorish.chain_order": {"size-sweep", "check-exhaustive"},
    "surface.min_enclosing_subsurface": {"size-sweep"},
    "surface.pack_subsurfaces": {"check-exhaustive", "cert-schema"},
    "surface.assembly_problems": {"check-exhaustive", "cert-schema"},
    "bootstrap.derive_technical": {"check-exhaustive", "cert-schema"},
    "bootstrap.Certificate.to_json": {"check-exhaustive", "cert-schema"},
    "bootstrap.certificate_from_json": {"check-exhaustive", "cert-schema"},
    "bootstrap.verify": {"check-exhaustive", "cert-schema"},
    "sweeps.sweep_size_soundness": {"size-sweep"},
    "nervecplx.nerve": {"nerve-demos"},
    "nervecplx.join": {"nerve-demos"},
    "nervecplx.join_all": {"nerve-demos"},
    "nervecplx.betti_z2": {"nerve-demos"},
}


def mutate_certificate(text: str, seed: int) -> tuple[str, str]:
    """One-field mutation chosen by the seed: an integer leaf of one node
    (id, params, premises, witnesses or judgment) is increased by one.
    Returns the mutated canonical JSON and a description."""
    doc = json.loads(text)
    leaves: list[list] = []

    def walk(obj, path):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], path + [k])
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(v, path + [i])
        elif isinstance(obj, int) and not isinstance(obj, bool):
            leaves.append(path)

    walk(doc["nodes"], ["nodes"])
    if not leaves:
        raise ValueError("certificate has no integer node field to mutate")
    path = random.Random(seed).choice(leaves)
    target = doc
    for step in path[:-1]:
        target = target[step]
    old = target[path[-1]]
    target[path[-1]] = old + 1
    desc = f"{'.'.join(map(str, path))}: {old} -> {old + 1}"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", desc


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildResult:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TWISTCERT_WORKERS"] = "1"
    return env


def spawn(argv: list[str]) -> ChildResult:
    """Run one child to completion in WORK; wall time from spawn to exit,
    peak RSS from the child's own rusage."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       out_path.read_bytes(), err_path.read_bytes())


def cli_argv(step: Step, trace_out: Optional[Path]) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "twistcert.cli", *step.args]
    return [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(trace_out), "--", *step.args]


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.steps = _workload_steps(workload)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_stdout: dict[str, bytes] = {}
        self.first_digest: dict[str, str] = {}
        self.cert_bytes = 0
        self.peak_rss_mb = 0.0
        self.mutation = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def verdict_error(self, step: Step, res: ChildResult) -> Optional[str]:
        if res.code != step.exit_code:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return f"exit {res.code}, expected {step.exit_code}: {tail[0]}"
        try:
            payload = json.loads(res.stdout)
        except ValueError:
            return "stdout is not one JSON verdict"
        if not isinstance(payload, dict):
            return "verdict is not a JSON object"
        for key, want in step.expect.items():
            if payload.get(key) != want:
                return f"{key} = {payload.get(key)!r}, expected {want!r}"
        if step.exit_code == 1 and not payload.get("violations"):
            return "rejection names no violation"
        return None

    def check_written(self, step: Step) -> Optional[str]:
        path = WORK / step.writes
        data = path.read_bytes()
        self.cert_bytes = len(data)
        digest = hashlib.sha256(data).hexdigest()
        first = self.first_digest.setdefault(step.key, digest)
        if digest != first:
            return f"{step.writes} bytes differ from the first run"
        if self.workload == "check-exhaustive":  # genus 7: parsed here, it seeds the bad certificate
            doc = json.loads(data)
            if doc.get("conclusion", {}).get("curves") != curve_names(7) or doc.get("header", {}).get("genus") != 7:
                return "certificate header or conclusion does not name the genus-7 generator set"
            if self.mutation is None:
                bad, self.mutation = mutate_certificate(data.decode(), self.seed)
                (WORK / "bad.json").write_text(bad, encoding="utf-8")
        return None

    def iteration(self, trace: bool) -> tuple[dict[str, float], list[dict]]:
        """Run the workload's commands once; return wall seconds per step
        and, when traced, each command's trace report."""
        walls: dict[str, float] = {}
        reports: list[dict] = []
        for step in self.steps:
            trace_out = WORK / "trace.json" if trace else None
            if trace_out is not None and trace_out.exists():
                trace_out.unlink()
            res = spawn(cli_argv(step, trace_out))
            self.attempted += 1
            walls[step.key] = res.wall_s
            self.peak_rss_mb = max(self.peak_rss_mb, res.rss_mb)
            error = self.verdict_error(step, res)
            first = self.first_stdout.setdefault(step.key, res.stdout)
            if error is None and res.stdout != first:
                error = "stdout differs from the first run"
            if error is None and step.writes:
                error = self.check_written(step)
            if error is None and trace_out is not None:
                if not trace_out.exists():
                    error = "traced command wrote no trace"
                else:
                    reports.append(json.loads(trace_out.read_text(encoding="utf-8")))
            if error is not None:
                self.fail(f"{self.workload}/{step.key}{' (traced)' if trace else ''}: {error}")
        return walls, reports


def measure_setup(spawns: int) -> list[float]:
    """Interpreter start plus ``import twistcert.cli``, doing no work."""
    argv = [sys.executable, "-c", "import twistcert.cli"]
    samples = []
    for _ in range(spawns):
        res = spawn(argv)
        if res.code != 0:
            raise RuntimeError(f"import twistcert.cli failed: {res.stderr.decode(errors='replace')}")
        samples.append(res.wall_s)
    return samples


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(reports: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced repetition (its commands summed)."""
    def total(kind: str, span: str) -> float:
        return sum(r[kind].get(span, 0) for r in reports)

    def per_call_us(span: str) -> float:
        calls = total("calls", span)
        return total("busy_s", span) / calls * 1e6 if calls else 0.0

    conn_calls = total("calls", "lickorish.connectivity")
    encl_calls = total("calls", "surface.enclosure")
    return {
        "lickorish.connectivity_calls": conn_calls,
        "lickorish.connectivity_s": total("busy_s", "lickorish.connectivity"),
        "lickorish.connected_yield": sum(r["connected"] for r in reports) / conn_calls if conn_calls else 0.0,
        "lickorish.classify_calls": total("calls", "lickorish.classify"),
        "lickorish.classify_us": per_call_us("lickorish.classify"),
        "lickorish.enclosing_interval_us": per_call_us("lickorish.enclosing_interval"),
        "lickorish.chain_order_us": per_call_us("lickorish.chain_order"),
        "surface.enclosure_calls": encl_calls,
        "surface.enclosure_us": per_call_us("surface.enclosure"),
        "surface.enclosure_distinct_ratio": (
            sum(r["enclosure_distinct"] for r in reports) / encl_calls if encl_calls else 0.0),
        "surface.pack_calls": total("calls", "surface.pack"),
        "surface.pack_s": total("busy_s", "surface.pack"),
        "surface.assembly_calls": total("calls", "surface.assembly"),
        "surface.assembly_s": total("busy_s", "surface.assembly"),
        "bootstrap.derive_s": total("busy_s", "bootstrap.derive"),
        "bootstrap.serialise_s": total("busy_s", "bootstrap.serialise"),
        "bootstrap.parse_s": total("busy_s", "bootstrap.parse"),
        "bootstrap.verify_s": total("busy_s", "bootstrap.verify"),
        "bootstrap.verify_self_s": total("self_s", "bootstrap.verify"),
        "sweeps.self_s": total("self_s", "sweeps.sweep"),
        "nervecplx.betti_calls": total("calls", "nervecplx.betti"),
        "nervecplx.betti_s": total("busy_s", "nervecplx.betti"),
        "nervecplx.join_s": total("busy_s", "nervecplx.join"),
        "nervecplx.nerve_s": total("busy_s", "nervecplx.nerve"),
    }


def wrapper_errors(workload: str, reports: list[dict]) -> list[str]:
    """Self-test of the traced run: call counts must be non-zero exactly
    where PREDICTED_CALLS says, and every wrapper must have been installed."""
    errors = []
    patched = reports[0]["patched"] if reports else {}
    for label, where in sorted(patched.items()):
        if not where:
            errors.append(f"{label}: wrapper installed in no namespace")
    for label in sorted(patched):
        calls = sum(r["fn_calls"].get(label, 0) for r in reports)
        predicted = workload in PREDICTED_CALLS.get(label, ())
        if predicted and calls == 0:
            errors.append(f"{label}: 0 calls on {workload}, where work is predicted (wrapper bypassed?)")
        elif not predicted and calls:
            errors.append(f"{label}: {calls} calls on {workload}, where none are predicted")
    return errors


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "twistcert").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "TWISTCERT_WORKERS": "1",
        "concurrency": "one CLI child at a time (closed loop, one client)",
        "limits": MEASUREMENT_LIMITS,
    }


def tail_percentile(samples: list[float]) -> Optional[tuple[float, float]]:
    """Highest percentile with at least ten samples above it, as
    (percent, value); None when that would not exceed the median
    (fewer than twenty samples)."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Run(workload, seed)
    measure_setup(1)  # warms the bytecode and file caches; not counted
    setup: list[float] = []
    walls: list[dict[str, float]] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    wrap_errors: list[str] = []
    # Repeat while the next repetition, judged by the last one, still fits
    # in the measuring window; always at least one.
    t_end = time.perf_counter() + seconds
    while True:
        t_start = time.perf_counter()
        walls.append(bench.iteration(trace=False)[0])
        if trace:
            tw, reports = bench.iteration(trace=True)
            traced_walls.append(sum(tw.values()))
            if len(reports) == len(bench.steps):
                layers.append(layer_metrics(reports))
                if not wrap_errors:
                    wrap_errors = wrapper_errors(workload, reports)
        else:
            # Setup spawns are spread over the window in proportion to the
            # workload's time, so setup_s samples the same stretch of the
            # machine's load as wall_s.
            setup += measure_setup(max(1, round(sum(walls[-1].values()) / SETUP_EVERY_S)))
        now = time.perf_counter()
        if now + (now - t_start) > t_end:
            break

    samples = {"wall_s": [sum(w.values()) for w in walls]}
    for role in ("certify", "check"):
        keys = [step.key for step in bench.steps if step.role == role]
        if keys:
            samples[f"{role}_s"] = [sum(w[k] for k in keys) for w in walls]
    if trace:
        samples["traced_wall_s"] = traced_walls
        values = {name: _median([m[name] for m in layers]) for name in layer_metrics([])}
        values["cli.certify_s"] = _median(samples.get("certify_s", []))
        values["cli.check_s"] = _median(samples.get("check_s", []))
        values["cli.cert_bytes"] = bench.cert_bytes
        values["trace.overhead_s"] = _median(traced_walls) - _median(samples["wall_s"])
        if not layers:
            bench.fail(f"{workload}: no complete traced repetition")
        for error in wrap_errors:
            bench.fail(f"{workload} trace self-test: {error}")
    else:
        samples["setup_s"] = setup
        values = {
            "wall_s": _median(samples["wall_s"]),
            "setup_s": _median(setup),
            "peak_rss_mb": bench.peak_rss_mb,
        }
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "mutation": bench.mutation,
        "error_rate": bench.failed / bench.attempted,
        "errors": bench.errors,
        "samples": samples,
        "tails": {k: tail_percentile(v) for k, v in samples.items()},
        "env": environment(),
    }
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return {"detail": detail, "result": result}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twistcert" / "cli.py").is_file():
        print(f"error: no twistcert sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for error in out["detail"]["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
