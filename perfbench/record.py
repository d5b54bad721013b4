"""Run every workload several times and write one results file.

    python3 perfbench/record.py --out perfbench/results/NAME.json
        [--baseline perfbench/results/OTHER.json]

Each workload runs ten times, with seeds 1 to 10, plus one traced run.
Each run is one ``run.py`` process with the ``run_seconds`` of
BENCHMARK.json; runs go one at a time, cycling through the workloads so
that drift in machine load reaches all of them alike.
For every end-to-end metric the file holds the per-run values, their
median and quartiles, and the spread (q3 - q1) / median next to the
metric's bound, and each run's raw samples; it also pools the raw
samples of all runs and reports their median, the highest percentile
with at least ten samples above it, and the sample count.  The traced
runs add the per-layer metrics.  With ``--baseline``, each median is
compared with the earlier file's; a metric worse by more than its bound
is flagged.

Exits 1 when a run fails a check, a spread exceeds its bound, or a
metric regresses against the baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

RUNS = 10  # untraced runs per workload, seeds 1..RUNS
TRACED_RUNS = 1  # traced runs per workload, seeds 1..TRACED_RUNS


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=bench.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "result": result, "mutation": detail["mutation"],
            "errors": detail["errors"], "samples": detail["samples"]}


def summarise(values: list[float], raw: list[float], unit: str, baseline: dict | None) -> dict:
    """Median, quartiles and spread of per-run values; the pooled raw
    samples; and the change against a baseline summary, when given."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    out = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
           "values": values}
    if raw:
        out["pooled_samples"] = pooled(raw)
    if baseline:
        out["baseline_median"] = baseline["median"]
        out["change"] = (med - baseline["median"]) / baseline["median"]
    return out


def show(name: str, s: dict) -> None:
    line = (f"  {name:<12} median {s['median']:.4g} {s['unit']}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
            f"  spread {s['spread']:.3f}")
    if "bound" in s:
        line += f" (bound {s['bound']})"
    if "change" in s:
        line += f"  vs baseline {s['change']:+.1%}"
    print(line)


def pooled(samples: list[float]) -> dict:
    tail = bench.tail_percentile(samples)
    return {"n": len(samples), "median": statistics.median(samples),
            "tail_percentile": tail[0] if tail else None, "tail": tail[1] if tail else None}


def main(argv: list[str] | None = None) -> int:
    spec = bench.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, RUNS + 1))
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8")) if args.baseline else None

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    traces: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(one_run(w, seed, spec["run_seconds"], trace=False))
    for seed in seeds[:TRACED_RUNS]:
        for w in workloads:
            traces[w].append(one_run(w, seed, spec["run_seconds"], trace=True))

    problems: list[str] = []
    report: dict = {"env": bench.environment(), "run_seconds": spec["run_seconds"], "seeds": seeds,
                    "workloads": {}}
    for w in workloads:
        attempted = sum(r["result"]["attempted"] for r in runs[w] + traces[w])
        failed = sum(r["result"]["failed"] for r in runs[w] + traces[w])
        for r in runs[w] + traces[w]:
            problems += [f"{w} seed {r['seed']}: {e}" for e in r["errors"]]
            if not r["result"]["correct"] and not r["errors"]:
                problems.append(f"{w} seed {r['seed']}: run reported incorrect")
        base = baseline["workloads"].get(w, {}) if baseline else {}
        end_to_end = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            s = summarise([r["result"]["metrics"][name]["value"] for r in runs[w]],
                          [x for r in runs[w] for x in r["samples"].get(name, [])],
                          m["unit"], base.get("end_to_end", {}).get(name))
            s["bound"] = m["bound"]
            if s["spread"] > m["bound"]:
                problems.append(f"{w} {name}: spread {s['spread']:.3f} exceeds bound {m['bound']}")
            if s.get("change", 0.0) > m["bound"]:
                problems.append(f"{w} {name}: median {s['median']:.4g} is {s['change']:+.1%} against "
                                f"the baseline {s['baseline_median']:.4g} (bound {m['bound']:.0%})")
            end_to_end[name] = s
        # the certify and check children, on the workloads that have them (not gated)
        commands = {}
        for key in ("certify_s", "check_s"):
            raw = [r["samples"][key] for r in runs[w] if key in r["samples"]]
            if raw:
                commands[key] = summarise([statistics.median(x) for x in raw], [x for xs in raw for x in xs],
                                          "s", base.get("commands", {}).get(key))
        per_layer = {}
        for m in spec["per_layer"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in traces[w]]
            if vals:
                per_layer[m["name"]] = {"unit": m["unit"], "median": statistics.median(vals), "values": vals}
        report["workloads"][w] = {
            "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
            "runs": [{"seed": r["seed"], "mutation": r["mutation"], "samples": r["samples"]} for r in runs[w]],
            "end_to_end": end_to_end, "commands": commands, "per_layer": per_layer,
        }
        print(f"{w}: {attempted} commands, {failed} failed")
        for name, s in {**end_to_end, **commands}.items():
            show(name, s)
        for name, s in per_layer.items():
            print(f"  {name:<34} {s['median']:.6g} {s['unit']}")
    report["problems"] = problems
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
