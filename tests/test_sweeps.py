"""Sweep helpers: subset counts and the counting-lemma block scan."""

from __future__ import annotations

from twistcert import lickorish as lk
from twistcert import surface as sf
from twistcert import sweeps
from twistcert.cli import main


def test_size_sweep_counts_connected_subsets():
    result = sweeps.sweep_size_soundness(2, 5)
    assert result.checked == 420  # 15 + 45 + 111 + 249 connected subsets
    assert result.violations == []


def _size_keys(g):
    """The distinct windows and chains of the connected subsets at genus
    g, classified one by one."""
    keys = set()
    for mask in lk.connected_masks(g):
        claim = lk.size_classify(lk.CurveSet(g, mask))
        keys.add(mask if claim.window is None else claim.window)
    return keys


def test_size_sweep_tests_connectivity_at_most_three_times_per_subset(monkeypatch):
    # the enumerator cross-check, the guard of enclosing_interval
    # (non-chains only) and that of min_enclosing_subsurface, which runs
    # once per key; earlier code tested each subset up to 5 times
    calls = []
    original = lk.is_connected_mask

    def counting(g, mask):
        calls.append(mask)
        return original(g, mask)

    keys = len(_size_keys(5))
    monkeypatch.setattr(lk, "is_connected_mask", counting)
    result = sweeps.sweep_size_soundness(5, 5)
    assert result.checked == 249 and result.violations == []
    assert len(calls) <= 2 * result.checked + keys


def test_size_sweep_orders_each_subset_at_most_once(monkeypatch):
    # size_classify tries the chain order once; the non-chain guard of
    # enclosing_interval reuses its branch test instead of a second order
    calls = []
    original = lk.chain_order

    def counting(s):
        calls.append(s.mask)
        return original(s)

    monkeypatch.setattr(lk, "chain_order", counting)
    result = sweeps.sweep_size_soundness(5, 7)
    assert result.checked == 249 + 531 + 1101 and result.violations == []
    assert len(calls) <= result.checked


def test_size_sweep_encloses_each_key_once(monkeypatch):
    calls = []
    original = sf.min_enclosing_subsurface

    def counting(rg, s, fill=True):
        calls.append((rg.genus, s.mask))
        return original(rg, s, fill)

    monkeypatch.setattr(sf, "min_enclosing_subsurface", counting)
    result = sweeps.sweep_size_soundness(5, 7)
    assert result.violations == []
    assert len(calls) == sum(len(_size_keys(g)) for g in range(5, 8))


def test_passing_subset_sweeps_build_no_curve_names(monkeypatch):
    # names are for reports: a chain's order is its curve indices, so a
    # passing sweep lists the 3g-1 curve names only where it builds the
    # genus-g surface, which names its crossings and its curve bits
    calls = []
    original = lk.curve_names

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(lk, "curve_names", counting)
    for sweep in (sweeps.sweep_goodchains, sweeps.sweep_size_soundness):
        calls.clear()
        result = sweep(2, 6)
        assert result.checked and result.violations == [], sweep.__name__
        assert calls == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6], sweep.__name__


def test_size_sweep_reports_a_failed_window_on_every_subset_in_it(monkeypatch):
    g = 6
    window = lk.Window(2, 4, 0, 0)
    bad_support = window.support(g).mask
    original = sf.min_enclosing_subsurface

    def inflated(rg, s, fill=True):
        rep = original(rg, s, fill)
        if s.mask != bad_support:
            return rep
        return sf.SubsurfaceReport(rep.genus + 1, rep.boundary_count, rep.complement_components)

    true = original(sf.lickorish_surface(g), lk.CurveSet(g, bad_support))
    expected = []
    for mask in lk.connected_masks(g):
        s = lk.CurveSet(g, mask)
        claim = lk.size_classify(s)
        if claim.window == window:
            h, b = claim.genus_bound, claim.boundary_bound
            expected.append(f"g={g} {s.sorted_members()}: enclosure "
                            f"({true.genus + 1},{true.boundary_count}) exceeds claim ({h},{b})")
    assert len(expected) > 1

    monkeypatch.setattr(sf, "min_enclosing_subsurface", inflated)
    result = sweeps.sweep_size_soundness(g, g)
    assert result.violations == expected


def test_chain_sweeps_report_an_enumerated_non_chain(monkeypatch):
    # the enumerator also yields {a1, a2}: each chain sweep confirms the
    # chain order of every mask it is given and reports this one
    original = lk.chain_masks
    monkeypatch.setattr(lk, "chain_masks", lambda g: sorted(original(g) + [0b11]))
    for sweep in (sweeps.sweep_goodchains, sweeps.sweep_badchains):
        result = sweep(3, 3)
        assert result.violations == ["g=3 ['a1', 'a2']: enumerated subset is not a chain"], sweep
    assert main(["lemma", "goodchains", "--genus-min", "3", "--genus-max", "3"]) == 1


def _per_k_low(g, bound):
    """(k, lhs) for every k in [2, 2g] whose count lhs is below bound, one k at a time."""
    out = []
    for k in range(2, 2 * g + 1):
        lhs = (k - 1) * (2 * g // k) if k % 2 == 0 else (k - 1) * (2 * (g - 1) // (k - 1))
        if lhs < bound:
            out.append((k, lhs))
    return out


def test_count_block_scan_matches_per_k_loop():
    # bound g is the lemma itself (nothing is low); 2g and 3g make many k low
    for g in range(1, 301):
        for bound in (g, 2 * g, 3 * g):
            brute = _per_k_low(g, bound)
            (n0, top0, shift0, _), (n1, top1, shift1, _) = sweeps._count_families(g)
            even = sweeps._low_terms(n0, top0, shift0, bound)
            odd = [(d + 1, lhs) for d, lhs in sweeps._low_terms(n1, top1, shift1, bound)]
            assert even == [p for p in brute if p[0] % 2 == 0][:10], (g, bound)
            assert odd == [p for p in brute if p[0] % 2 == 1][:10], (g, bound)
    result = sweeps.sweep_count(1, 300)
    assert result.checked == 300 * 300  # sum of 2g-1
    assert result.violations == []
