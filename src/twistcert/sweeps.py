"""Exhaustive verification sweeps over the generator-set combinatorics.

Each sweep re-derives one of the enclosure facts by brute force on the
ribbon-graph model and reports the number of cases checked plus every
violation found.  The CLI and the acceptance suite both run these.

The chain sweeps visit only the chains, the paths of the intersection
tree, enumerated directly by :func:`twistcert.lickorish.chain_masks`;
each is still confirmed a chain by
:func:`twistcert.lickorish.chain_order` before it is checked.  The size
sweep takes each connected subset's claim from
:func:`twistcert.lickorish.classified_subsets` and checks its enclosure
once per distinct window (lo, hi, lt, rt) or chain, as it depends on
the window and not on the subset inside; each subset's claim is then
compared with it.
"""

from __future__ import annotations

import time

from . import lickorish as lk
from . import surface as sf
from .bootstrap import count_inequality


class SweepResult:
    """Cases checked and violations found by one sweep, and its time from
    construction to :meth:`done`."""

    __slots__ = ("name", "checked", "violations", "elapsed", "started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.checked = 0
        self.violations: list[str] = []
        self.elapsed = 0.0
        self.started = time.perf_counter()

    @property
    def passed(self) -> bool:
        return not self.violations

    def done(self) -> "SweepResult":
        self.elapsed = time.perf_counter() - self.started
        return self


def _scan_chains(name: str, genus_min: int, genus_max: int, check) -> SweepResult:
    """Run check(g, rg, s, m, result) on every chain s of every genus in
    range from 2, rg being the genus-g surface and m the chain's length.
    Each enumerated mask is confirmed a chain first, so an enumerator bug
    shows as a violation."""
    result = SweepResult(name)
    for g in range(max(genus_min, 2), genus_max + 1):
        rg = sf.lickorish_surface(g)
        for mask in lk.chain_masks(g):
            s = lk.CurveSet(g, mask)
            order = lk.chain_order(s)
            if order is None:
                result.violations.append(f"g={g} {s.sorted_members()}: enumerated subset is not a chain")
                continue
            check(g, rg, s, len(order), result)
    return result.done()


# ---------------------------------------------------------------------------
# chain lemma (raw regular neighbourhoods)


def _check_chain(g: int, rg, s: lk.CurveSet, m: int, out: SweepResult) -> None:
    out.checked += 1
    rep = sf.min_enclosing_subsurface(rg, s, fill=False)
    want = (m // 2, 1) if m % 2 == 0 else ((m - 1) // 2, 2)
    if (rep.genus, rep.boundary_count) != want:
        out.violations.append(
            f"g={g} chain {s.sorted_members()}: neighbourhood "
            f"({rep.genus},{rep.boundary_count}) != {want}"
        )


def sweep_goodchains(genus_min: int, genus_max: int) -> SweepResult:
    """Every chain's raw neighbourhood is genus floor(m/2) with one
    boundary circle (m even) or two (m odd)."""
    return _scan_chains("goodchains", genus_min, genus_max, _check_chain)


def _check_separating(g: int, rg, s: lk.CurveSet, m: int, out: SweepResult) -> None:
    if m % 2 == 0:
        return
    out.checked += 1
    rep = sf.min_enclosing_subsurface(rg, s, fill=False)
    separating = len(rep.complement_components) > 1
    structural = lk.separating_chain_form(s) is not None
    if separating != structural:
        out.violations.append(
            f"g={g} chain {s.sorted_members()}: complement disconnected={separating} "
            f"but matches the deleted-interior-a family={structural}"
        )


def sweep_badchains(genus_min: int, genus_max: int) -> SweepResult:
    """The separating chains are exactly the family obtained from the
    two-a-endpoint windows by deleting interior a-curves."""
    return _scan_chains("badchains", genus_min, genus_max, _check_separating)


# ---------------------------------------------------------------------------
# window lemmas (filled neighbourhoods)


def sweep_intervals(genus_min: int, genus_max: int) -> SweepResult:
    """The filled neighbourhood of every window (lo, hi, lt, rt) has the
    window's claim, with connected complement.

    The full-width window (1, g, 0, 0) is the one degenerate row: its
    complement is a single disk, so the filled neighbourhood closes up to
    the whole surface (boundary 0 instead of 1).
    """
    result = SweepResult("intervals")
    for g in range(genus_min, genus_max + 1):
        rg = sf.lickorish_surface(g)
        windows = [lk.Window(lo, hi, lt, rt) for lo in range(1, g + 1) for hi in range(lo, g + 1)
                   for lt in range(1 + (lo > 1)) for rt in range(1 + (hi < g)) if hi > lo or lt or rt]
        for w in windows:
            result.checked += 1
            rep = sf.min_enclosing_subsurface(rg, w.support(g), fill=True)
            full = w == (1, g, 0, 0)  # spans every handle; filling closes up
            want, want_components = ((g, 0), 0) if full else (w.claim, 1)
            got = (rep.genus, rep.boundary_count)
            if got != want:
                result.violations.append(f"g={g} {w.label}: filled window {got} != {want}")
            if len(rep.complement_components) != want_components:
                result.violations.append(
                    f"g={g} {w.label}: complement census {rep.complement_components} "
                    f"should have {want_components} component(s)"
                )
    return result.done()


# ---------------------------------------------------------------------------
# soundness of the size classifier


def _check_size(enclosures: dict, rg, s: lk.CurveSet, claim: lk.EnclosureClaim, problems: list) -> None:
    """Add to ``problems`` what is wrong with s and its claim.  The
    ribbon-graph enclosure is that of the claim's window (of s itself for
    a chain), which ``enclosures`` holds from the window's or chain's
    first subset on, keyed by the window or the chain's mask."""
    w = claim.window  # None for a chain, which encloses itself
    key = s.mask if w is None else w
    if key not in enclosures:
        support = s if w is None else w.support(rg.genus)
        rep = sf.min_enclosing_subsurface(rg, support, fill=True)
        enclosures[key] = support.mask, rep.genus, rep.boundary_count, len(rep.complement_components) > 1
    support, genus, boundary, split = enclosures[key]
    if w is not None and w.m >= len(s):
        problems.append(f"enclosing interval {w.label} has m={w.m} >= |S|")
    if s.mask & ~support:  # never for a chain, its own support
        problems.append(f"support of {w.label} does not contain the set")
    if genus > claim.genus_bound or boundary > claim.boundary_bound:
        problems.append(f"enclosure ({genus},{boundary}) exceeds claim ({claim.genus_bound},{claim.boundary_bound})")
    if split:
        problems.append("enclosure complement is disconnected")


def sweep_size_soundness(genus_min: int, genus_max: int) -> SweepResult:
    """Every connected subset's enclosure claim is semantically verified:
    the support's filled neighbourhood stays within the claimed genus and
    boundary bounds and has connected (or empty) complement.  The
    enclosure is computed once per distinct window or chain, and compared
    with each subset's claim."""
    result = SweepResult("size")
    for g in range(max(genus_min, 2), genus_max + 1):
        rg = sf.lickorish_surface(g)
        enclosures: dict = {}
        for s, claim, defect in lk.classified_subsets(g):
            problems = [] if defect is None else [defect[1]]
            if claim is not None:
                _check_size(enclosures, rg, s, claim, problems)
            result.checked += defect is None or defect[0] != "enumerator"
            result.violations += [f"g={g} {s.sorted_members()}: {p}" for p in problems]
    return result.done()


# ---------------------------------------------------------------------------
# counting lemma and packings


def _low_terms(n: int, d_max: int, shift: int, bound: int) -> list[tuple[int, int]]:
    """(d, term) for the first 10 even d in [2, d_max] whose term
    (d - shift) * (n // d) is below ``bound``, ascending in d; d_max <= n.

    Within a block of d where n // d is constant the term grows with d,
    so only the block's first even d can be its minimum: a block is
    scanned only when that first term is already too small.
    """
    low: list[tuple[int, int]] = []
    d = 2
    while d <= d_max and len(low) < 10:
        q = n // d
        last = min(n // q, d_max)  # last d of this block
        if (d - shift) * q < bound:
            for e in range(d, last + 1, 2):
                if (e - shift) * q < bound:
                    low.append((e, (e - shift) * q))
        d = (last + 2) & ~1  # first even d of the next block
    return low[:10]


def _count_families(g: int) -> tuple[tuple[int, int, int, int], ...]:
    """The counting lemma's even-k and odd-k families at genus g as
    (n, d_max, shift, k - d): with d even, k = d has lhs (d-1) * (2g // d)
    and k = d+1 has lhs d * (2(g-1) // d)."""
    return (2 * g, 2 * g, 1, 0), (2 * (g - 1), 2 * g - 2, 0, 1)


def sweep_count(genus_min: int, genus_max: int) -> SweepResult:
    """Floor-count inequality for every genus in range and every k in
    [2, 2g], scanned per genus over the blocks where the floor is
    constant and spot-checked against the scalar evaluator."""
    result = SweepResult("count")
    for g in range(genus_min, genus_max + 1):
        families = _count_families(g)
        result.checked += 2 * g - 1
        bad = []
        for n, d_max, shift, dk in families:
            bad += [(d + dk, lhs) for d, lhs in _low_terms(n, d_max, shift, g)]
        for kk, lhs in sorted(bad)[:10]:
            result.violations.append(f"g={g} k={kk}: lhs={lhs} < g")
        if g % 479 == 0 or g == genus_min:
            for kk in (2, min(3, 2 * g), 2 * g):
                n, _d_max, shift, dk = families[kk % 2]
                lhs = (kk - dk - shift) * (n // (kk - dk))
                want = count_inequality(g, kk)
                if want != lhs:
                    result.violations.append(
                        f"g={g} k={kk}: block-scan lhs {lhs} disagrees with count_inequality ({want})"
                    )
    return result.done()


def sweep_fit(genus_min: int, genus_max: int) -> SweepResult:
    """All packings in range emit the advertised number of marked pieces
    and pass the assembly checks, including the non-separating ones."""
    result = SweepResult("fit")
    for g in range(genus_min, genus_max + 1):
        for ell in range(1, g + 1):
            for kind, expected in (
                ("fit1", g // ell),
                ("fit2", g // ell),
                ("fit3", (g - 1) // ell),
            ):
                if expected == 0:
                    try:
                        sf.pack_subsurfaces(g, kind, ell)
                    except sf.SurfaceError:
                        result.checked += 1
                    else:
                        result.violations.append(
                            f"g={g} {kind} ell={ell}: expected a rejection for zero pieces"
                        )
                    continue
                result.checked += 1
                plan = sf.pack_subsurfaces(g, kind, ell)
                if len(plan.marked_pieces) != expected:
                    result.violations.append(
                        f"g={g} {kind} ell={ell}: {len(plan.marked_pieces)} marked != {expected}"
                    )
                problems = sf.assembly_problems(plan, g)
                for p in problems:
                    result.violations.append(f"g={g} {kind} ell={ell}: {p}")
    return result.done()
