"""Command-line front end.

Subcommands:

* ``lemma <goodchains|badchains|size|fit|count>`` -- brute-force sweeps
  over a genus range; exit 1 when any case fails, 2 when none is checked.
* ``classify`` -- enclosure claims for one subset or all connected ones.
* ``certify`` -- derive a fixed-point certificate and write it to a file.
* ``check`` -- independently re-verify a certificate file.
* ``nerve`` -- nerve/join/homology property demos.

Exit codes: 0 pass, 1 verification failure, 2 usage, I/O or memory error.
``--json`` prints a machine report with sorted keys and no timing, so
identical inputs produce identical bytes.

Each command executes only the layers it runs: importing this module
puts the five layer modules in sys.modules and on the package through
:class:`importlib.util.LazyLoader`, and a layer's code runs when a
command, or another layer through its module, first reads one of its
attributes.  A function-local import would leave a layer out of
sys.modules, where the benchmark tracer (``perfbench/trace_cli.py``)
looks each one up.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from typing import Optional, Sequence

from . import SweepResult, __version__


def _layer(name: str):
    """The module ``twistcert.<name>``, in sys.modules and on the package,
    whose code runs when a command first reads one of its attributes; a
    module already imported is returned as it is."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


lk, nc, sweeps, bs = map(_layer, ("lickorish", "nervecplx", "sweeps", "bootstrap"))
_layer("surface")  # read by no command here, but every layer is in sys.modules after this import


def _emit(args, payload: dict, human_lines: list[str], elapsed: float,
          violations: Sequence = (), found: int = 0) -> None:
    """Print the JSON payload, or the human lines, the first 20 violations and how many more were found."""
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)
        for v in violations[:20]:
            print(f"  violation: {v}")
        more = max(len(violations), found) - 20
        if more > 0:
            print(f"  ... and {more} more")
        print(f"wall time: {elapsed:.2f}s")


def _sweep_report(args, result: SweepResult, extra: dict) -> int:
    payload = {
        "command": args.command,
        "checked": result.checked,
        "violations": result.violations,
        "pass": result.passed,
        **extra,
    }
    status = "PASS" if result.passed else "FAIL"
    lines = [f"{args.command} {result.name}: {status} ({result.checked} cases, {len(result.violations)} violations)"]
    _emit(args, payload, lines, result.elapsed, result.violations)
    return 0 if result.passed else 1


_LEMMAS = ("goodchains", "badchains", "size", "fit", "count")


def _lemma_sweep(which: str):
    """The sweep behind a ``lemma`` name; a sweep over curve subsets starts at genus 2."""
    return {"goodchains": sweeps.sweep_goodchains, "badchains": sweeps.sweep_badchains,
            "size": sweeps.sweep_size_soundness, "fit": sweeps.sweep_fit, "count": sweeps.sweep_count}[which]


def _cmd_lemma(args) -> int:
    lo, hi = args.genus_min, args.genus_max
    if lo > hi:
        print("error: --genus-min exceeds --genus-max", file=sys.stderr)
        return 2
    extra = {"lemma": args.which, "genus_min": lo, "genus_max": hi}
    result = _lemma_sweep(args.which)(max(lo, 1), hi)
    if not result.checked:
        print(f"error: lemma {args.which} checks no case at genus {lo}..{hi}", file=sys.stderr)
        return 2
    return _sweep_report(args, result, extra)


def _cmd_classify(args) -> int:
    g = args.genus
    t0 = time.perf_counter()
    if g > MAX_CERTIFY_GENUS:  # a curve mask holds 3g-1 bits
        print(f"error: genus {g} exceeds {MAX_CERTIFY_GENUS}, the largest genus certify derives", file=sys.stderr)
        return 2
    if args.set:
        names = [n.strip() for n in args.set.split(",") if n.strip()]
        s = lk.CurveSet.of(g, names)  # main reports a LickorishError: exit 2
        if not names or not lk.is_connected_mask(g, s.mask):
            print("error: classify needs a nonempty connected set", file=sys.stderr)
            return 2
        claim = lk.size_classify(s)
        w = claim.window
        if w is not None:
            case = f"interval:{w.label}:m={w.m}"
        elif len(s) % 2 == 0:
            case = "chain-even"
        else:  # an odd chain closes up with one boundary circle only when it separates
            case = "chain-odd-separating" if claim.boundary_bound == 1 else "chain-odd"
        payload = {
            "command": "classify",
            "genus": g,
            "set": s.sorted_members(),
            "claim": {
                "genus_bound": claim.genus_bound,
                "boundary_bound": claim.boundary_bound,
                "nonseparating_required": True,  # every claim requires a connected complement
                "case": case,
            },
            "pass": True,
        }
        lines = [
            f"classify g={g} {','.join(s.sorted_members())}: enclosure genus <= "
            f"{claim.genus_bound}, boundary <= {claim.boundary_bound} [{case}]"
        ]
        _emit(args, payload, lines, time.perf_counter() - t0)
        return 0

    counts: dict[str, int] = {}
    failures: list[str] = []
    checked = 0
    for s, claim, defect in lk.classified_subsets(g):
        if defect is not None:
            failures.append(f"{s.sorted_members()}: {defect[1]}")
        checked += defect is None or defect[0] != "enumerator"
        if claim is not None:
            key = f"({claim.genus_bound},{claim.boundary_bound})"
            counts[key] = counts.get(key, 0) + 1
    payload = {
        "command": "classify",
        "genus": g,
        "checked": checked,
        "claims": dict(sorted(counts.items())),
        "violations": failures,
        "pass": not failures,
    }
    lines = [f"classify --all g={g}: {checked} connected subsets"]
    lines += [f"  claim {k}: {v} subsets" for k, v in sorted(counts.items())]
    lines += [f"  violation: {f}" for f in failures]
    _emit(args, payload, lines, time.perf_counter() - t0)
    return 0 if not failures else 1


# The largest certificate file ``check`` reads: genus 4,323 at most (713,546
# bytes at genus 400); a larger file is refused before it is parsed.
MAX_CERTIFICATE_BYTES = 8_000_000
# The largest genus ``certify`` derives and ``classify`` takes: at genus
# 4,323 the largest file (main, a four-digit dim) is 7,999,715 bytes, at
# 4,324 every file exceeds MAX_CERTIFICATE_BYTES, which ``check`` would refuse.
MAX_CERTIFY_GENUS = 4_323


def _cmd_certify(args) -> int:
    t0 = time.perf_counter()
    theorem = bs.Theorem(args.theorem)
    if args.genus > MAX_CERTIFY_GENUS:
        print(f"error: genus {args.genus} exceeds {MAX_CERTIFY_GENUS}: its certificate would exceed "
              f"the {MAX_CERTIFICATE_BYTES} bytes that check reads", file=sys.stderr)
        return 2
    try:
        derive = {"technical": bs.derive_technical, "main": bs.derive_main, "kg": bs.derive_kg}[theorem.value]
        result = derive(args.genus, args.dim)
    except bs.BootstrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, bs.Failure):
        payload = {
            "command": "certify",
            "genus": args.genus,
            "dim": args.dim,
            "theorem": theorem.value,
            "pass": False,
            "blocking": {
                "rule": result.blocking_rule,
                "tag": result.tag,
                "message": result.message,
                "params": result.params,
            },
        }
        lines = [
            f"certify g={args.genus} dim={args.dim} {theorem.value}: FAIL",
            f"  blocked at {result.blocking_rule} [{result.tag}]: {result.message}",
        ]
        _emit(args, payload, lines, time.perf_counter() - t0)
        return 1
    text = result.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    payload = {
        "command": "certify",
        "genus": args.genus,
        "dim": args.dim,
        "theorem": theorem.value,
        "nodes": len(result.nodes),
        "axioms": list(result.axioms),
        "out": args.out,
        "pass": True,
    }
    lines = [
        f"certify g={args.genus} dim={args.dim} {theorem.value}: PASS "
        f"({len(result.nodes)} nodes, axioms: {', '.join(result.axioms)})"
    ]
    if args.out:
        lines.append(f"  wrote {args.out}")
    _emit(args, payload, lines, time.perf_counter() - t0)
    return 0


def _cmd_check(args) -> int:
    t0 = time.perf_counter()
    try:
        with open(args.file, "rb") as fh:
            data = fh.read(MAX_CERTIFICATE_BYTES + 1)
        if len(data) > MAX_CERTIFICATE_BYTES:
            raise ValueError(f"file exceeds {MAX_CERTIFICATE_BYTES} bytes")
        data = data.decode("utf-8")  # the bytes go before the parse, the text after it
        cert = bs.certificate_from_json(data)
        del data
    except (OSError, json.JSONDecodeError, KeyError, ValueError, RecursionError) as exc:
        print(f"error: cannot load certificate {args.file}: {exc}", file=sys.stderr)
        return 2
    cap = bs.EXHAUSTIVE_HARD_CAP
    bound = cap if args.exhaustive_max_genus is None else args.exhaustive_max_genus
    if bound > cap:
        print(f"warning: exhaustive bound {bound} capped at genus {cap}", file=sys.stderr)
    report: dict = {}
    violations = bs.verify(cert, exhaustive_max_genus=bound, report=report)
    coverage = report["coverage"]
    payload = {
        "command": "check",
        "coverage": coverage,
        "file": args.file,
        "genus": cert.genus,
        "dim": cert.dim,
        "theorem": cert.theorem.value,
        "violations": [str(v) for v in violations],
        "pass": not violations,
    }
    status = "PASS" if not violations else "FAIL"
    lines = [f"check {args.file}: {status} (g={cert.genus}, dim={cert.dim}, {cert.theorem.value})"]
    if coverage["mode"] == "exhaustive":
        lines.append(f"  coverage: exhaustive up to genus {coverage['max_genus']} "
                     f"({coverage['connected_subsets']} connected subsets of size >= 3)")
    elif coverage["mode"] == "not-run":
        lines.append(f"  coverage: not run, verification stopped before subset coverage "
                     f"(exhaustive bound: genus {coverage['max_genus']})")
    else:
        lines.append(f"  coverage: schema-only, no subset enumerated (exhaustive bound: genus {coverage['max_genus']})")
    _emit(args, payload, lines, time.perf_counter() - t0, violations, report.get("found", 0))
    return 0 if not violations else 1


def _demo_helly1d(trials: int, seed: int) -> SweepResult:
    """Random interval families on the line: a nerve containing the full
    1-skeleton is the whole simplex."""
    import random

    rng = random.Random(seed)
    result = SweepResult("helly1d")
    for _ in range(trials):
        n = rng.randint(2, 7)
        fam = []
        for _ in range(n):
            a = rng.randint(0, 12)
            b = a + rng.randint(0, 6)
            fam.append(frozenset(range(a, b + 1)))
        nv = nc.nerve(fam)
        result.checked += 1
        full_skeleton = all(
            nv.has_simplex({i, j}) for i in range(n) for j in range(i + 1, n)
        )
        if full_skeleton and not nv.has_simplex(range(n)):
            result.violations.append(f"family {sorted(map(sorted, fam))}: 1-skeleton full but nerve incomplete")
    return result.done()


def _demo_sphere_joins(limit: int = 7) -> SweepResult:
    """Joins of simplex boundaries carry the homology of the sphere of
    dimension (sum of the k_i) - 1, for every composition up to the cap."""
    result = SweepResult("sphere-joins")
    for parts, joined, sphere in nc.sphere_joins(nc.compositions(limit)):
        result.checked += 1
        if not sphere:
            result.violations.append(
                f"join of boundaries {parts}: not a homology {sum(parts) - 1}-sphere "
                f"(betti {nc.betti_z2(joined)})"
            )
    return result.done()


def _cmd_nerve(args) -> int:
    if args.demo == "helly1d":
        result = _demo_helly1d(trials=500, seed=20090803)
    else:
        result = _demo_sphere_joins()
    return _sweep_report(args, result, {"demo": args.demo})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistcert",
        description="verify twist-generator surface combinatorics and emit/check fixed-point certificates",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lemma", help="brute-force one lemma over a genus range")
    p.add_argument("which", choices=_LEMMAS)
    p.add_argument("--genus-min", type=int, default=2)
    p.add_argument("--genus-max", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("classify", help="enclosure claims for curve subsets")
    p.add_argument("--genus", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--set", type=str, help="comma-separated curve ids, e.g. a1,b1,g1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("certify", help="derive a fixed-point certificate")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--theorem", choices=["technical", "main", "kg"], default="technical")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check", help="re-verify a certificate file")
    p.add_argument("file")
    p.add_argument("--exhaustive-max-genus", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("nerve", help="nerve/join/homology demos")
    p.add_argument("--demo", choices=["helly1d", "sphere-joins"], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_nerve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:  # first: testing lk.LickorishError would execute lickorish
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2
    except lk.LickorishError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
