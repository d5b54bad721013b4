"""Run one twistcert command with its layer functions wrapped in spans.

    python3 perfbench/trace_cli.py TRACE_OUT.json -- <twistcert arguments>

The wrappers are installed from outside the package: each function in
SPANS is replaced in its own module and in every twistcert namespace
that holds a reference to it (names imported with ``from ... import``,
and dict tables such as the CLI's deriver table), so no call path keeps
the unwrapped function.  Hot functions are aggregated per span name
(calls, busy time, self time) rather than stored one span per call.

The command's stdout and exit code are those of the untraced CLI; the
counters go to TRACE_OUT.json.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Span name for each wrapped function, as (module, attribute path).
# Functions that share a span name nest into one span, e.g. join_all
# calling join.
SPANS = {
    ("lickorish", "is_connected_mask"): "lickorish.connectivity",
    ("lickorish", "size_classify"): "lickorish.classify",
    ("lickorish", "enclosing_interval"): "lickorish.enclosing_interval",
    ("lickorish", "chain_order"): "lickorish.chain_order",
    ("surface", "min_enclosing_subsurface"): "surface.enclosure",
    ("surface", "pack_subsurfaces"): "surface.pack",
    ("surface", "assembly_problems"): "surface.assembly",
    ("bootstrap", "derive_technical"): "bootstrap.derive",
    ("bootstrap", "derive_main"): "bootstrap.derive",
    ("bootstrap", "derive_kg"): "bootstrap.derive",
    ("bootstrap", "Certificate.to_json"): "bootstrap.serialise",
    ("bootstrap", "certificate_from_json"): "bootstrap.parse",
    ("bootstrap", "verify"): "bootstrap.verify",
    ("sweeps", "sweep_goodchains"): "sweeps.sweep",
    ("sweeps", "sweep_badchains"): "sweeps.sweep",
    ("sweeps", "sweep_intervals"): "sweeps.sweep",
    ("sweeps", "sweep_size_soundness"): "sweeps.sweep",
    ("sweeps", "sweep_count"): "sweeps.sweep",
    ("sweeps", "sweep_fit"): "sweeps.sweep",
    ("nervecplx", "nerve"): "nervecplx.nerve",
    ("nervecplx", "join"): "nervecplx.join",
    ("nervecplx", "join_all"): "nervecplx.join",
    ("nervecplx", "betti_z2"): "nervecplx.betti",
}


class Tracer:
    """Per-span-name call counts, busy time (outermost call only, so
    nesting is not counted twice) and self time (minus wrapped children)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.connected = 0
        self.enclosure_keys: set = set()
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, span: str, label: str, fn, observe=None):
        calls, fn_calls, busy, selfs = self.calls, self.fn_calls, self.busy_s, self.self_s
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[span] += 1
            fn_calls[label] += 1
            frame = [0.0]
            stack.append(frame)
            depth[span] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[span] -= 1
                if not depth[span]:
                    busy[span] += dt
                selfs[span] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def observe_connectivity(self, args, kwargs, result) -> None:
        if result:
            self.connected += 1

    def observe_enclosure(self, args, kwargs, result) -> None:
        # the restriction cache is keyed by (surface, member set), whatever ``fill`` is
        rg, s = args[0], args[1]
        members = getattr(s, "members", None)
        self.enclosure_keys.add((rg.genus, members if members is not None else frozenset(s)))

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy_s),
            "self_s": dict(self.self_s),
            "fn_calls": dict(self.fn_calls),
            "connected": self.connected,
            "enclosure_distinct": len(self.enclosure_keys),
        }


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every function in SPANS; return, per function, the
    namespaces in which a reference was replaced."""
    import twistcert.cli  # noqa: F401  (loads every layer)

    packages = {n: m for n, m in sys.modules.items() if n == "twistcert" or n.startswith("twistcert.")}
    observers = {
        "lickorish.is_connected_mask": tracer.observe_connectivity,
        "surface.min_enclosing_subsurface": tracer.observe_enclosure,
    }
    patched: dict[str, list[str]] = {}
    for (module, path), span in SPANS.items():
        label = f"{module}.{path}"
        owner = packages[f"twistcert.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, label, original, observers.get(label))
        where = []
        if outer:  # a method: patching the class reaches every caller
            setattr(owner, attr, wrapper)
            where.append(f"twistcert.{module}.{'.'.join(outer)}")
        for name, mod in packages.items():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    where.append(name)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            where.append(f"{name}.{key}")
        patched[label] = where
    return patched


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_cli.py TRACE_OUT.json -- <twistcert arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    patched = install(tracer)
    from twistcert import cli

    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        report = tracer.report()
        report["patched"] = patched
        report["wall_s"] = time.perf_counter() - t0
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
