"""Sweeps: subset counts, the counting-lemma block scan and every violation message."""

from __future__ import annotations

import pytest

from twistcert import bootstrap as bs
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


# ---------------------------------------------------------------------------
# every violation message of the sweeps, each reached by one fault put
# into the module attribute the sweep reads


def _patch_report(monkeypatch, g, names, change):
    """min_enclosing_subsurface, with change(report) returned for the set
    of the named curves at genus g."""
    target = lk.CurveSet.of(g, names).mask
    original = sf.min_enclosing_subsurface

    def patched(rg, s, fill=True):
        rep = original(rg, s, fill)
        return change(rep) if rg.genus == g and s.mask == target else rep

    monkeypatch.setattr(sf, "min_enclosing_subsurface", patched)


def _one_more_genus(rep):
    return rep._replace(genus=rep.genus + 1)


def _one_more_piece(rep):
    return rep._replace(complement_components=rep.complement_components + ((0, 1),))


def test_goodchains_reports_a_wrong_neighbourhood(monkeypatch):
    _patch_report(monkeypatch, 2, ["a1", "b1"], _one_more_genus)
    assert sweeps.sweep_goodchains(2, 2).violations == ["g=2 chain ['a1', 'b1']: neighbourhood (2,1) != (1, 1)"]


def test_badchains_reports_a_separating_chain_outside_the_family(monkeypatch):
    target = lk.CurveSet.of(3, ["a1", "b1", "g1", "b2", "a2"]).mask
    original = lk.separating_chain_form
    monkeypatch.setattr(lk, "separating_chain_form", lambda s: None if s.mask == target else original(s))
    assert sweeps.sweep_badchains(3, 3).violations == [
        "g=3 chain ['a1', 'a2', 'b1', 'b2', 'g1']: complement disconnected=True "
        "but matches the deleted-interior-a family=False"]


@pytest.mark.parametrize("change,want", [
    (_one_more_genus, "g=2 [b1,g1]: filled window (2, 2) != (1, 2)"),
    (_one_more_piece, "g=2 [b1,g1]: complement census ((0, 2), (0, 1)) should have 1 component(s)"),
], ids=["claim", "census"])
def test_intervals_reports_a_wrong_window(monkeypatch, change, want):
    _patch_report(monkeypatch, 2, ["a1", "b1", "g1"], change)  # the support of Window(1, 1, 0, 1)
    assert sweeps.sweep_intervals(2, 2).violations == [want]


def _forge_claim(monkeypatch, names, claim):
    """classified_subsets at genus 3, with ``claim`` for the named set."""
    target = lk.CurveSet.of(3, names).mask
    original = lk.classified_subsets
    monkeypatch.setattr(lk, "classified_subsets", lambda g: (
        (s, claim if s.mask == target else c, defect) for s, c, defect in original(g)))


@pytest.mark.parametrize("names,window,want", [
    # [b1,b3] spans the whole genus-3 surface, and its m = 5 is not below |S| = 5
    (["a1", "b1", "g1", "b2", "a2"], lk.Window(1, 3, 0, 0),
     "g=3 ['a1', 'a2', 'b1', 'b2', 'g1']: enclosing interval [b1,b3] has m=5 >= |S|"),
    (["b2", "g2", "b3", "a3"], lk.Window(1, 2, 0, 0),
     "g=3 ['a3', 'b2', 'b3', 'g2']: support of [b1,b2] does not contain the set"),
], ids=["m", "support"])
def test_size_sweep_reports_a_forged_window(monkeypatch, names, window, want):
    _forge_claim(monkeypatch, names, lk.EnclosureClaim(*window.claim, window))
    assert sweeps.sweep_size_soundness(3, 3).violations == [want]


def test_size_sweep_reports_a_split_complement(monkeypatch):
    # a chain's enclosure is its own, keyed by its mask alone
    _patch_report(monkeypatch, 2, ["a1", "b1"], _one_more_piece)
    assert sweeps.sweep_size_soundness(2, 2).violations == ["g=2 ['a1', 'b1']: enclosure complement is disconnected"]


def test_count_sweep_reports_a_low_term(monkeypatch):
    # the even family, k = d, is the one with shift 1
    monkeypatch.setattr(sweeps, "_low_terms", lambda n, d_max, shift, bound: [(2, 0)] if shift else [])
    assert sweeps.sweep_count(3, 3).violations == ["g=3 k=2: lhs=0 < g"]


def test_count_sweep_reports_a_disagreeing_evaluator(monkeypatch):
    original = bs.count_inequality
    monkeypatch.setattr(bs, "count_inequality", lambda g, k: original(g, k) + (k == 2))
    assert sweeps.sweep_count(3, 3).violations == ["g=3 k=2: block-scan lhs 3 disagrees with count_inequality (4)"]


def _accept_every_packing(monkeypatch):
    original = sf.pack_subsurfaces

    def pack(g, kind, ell):
        try:
            return original(g, kind, ell)
        except sf.SurfaceError:
            return sf.AssemblyPlan(((g, 0),), (), ())

    monkeypatch.setattr(sf, "pack_subsurfaces", pack)


def _drop_a_marked_piece(monkeypatch):
    original = sf.pack_subsurfaces

    def pack(g, kind, ell):
        plan = original(g, kind, ell)
        return plan._replace(marked_pieces=plan.marked_pieces[1:]) if (kind, ell) == ("fit1", 1) else plan

    monkeypatch.setattr(sf, "pack_subsurfaces", pack)


def _refuse_fit3_1(monkeypatch):
    original_pack, original_assembly = sf.pack_subsurfaces, sf.assembly_problems
    monkeypatch.setattr(sf, "assembly_problems", lambda plan, g: (
        ["forged problem"] if plan == original_pack(g, "fit3", 1) else original_assembly(plan, g)))


@pytest.mark.parametrize("fault,genus,want", [
    (_accept_every_packing, 1, "g=1 fit3 ell=1: expected a rejection for zero pieces"),
    (_drop_a_marked_piece, 2, "g=2 fit1 ell=1: 1 marked != 2"),
    (_refuse_fit3_1, 2, "g=2 fit3 ell=1: forged problem"),
], ids=["rejection", "marked", "assembly"])
def test_fit_sweep_reports_a_faulty_packing(monkeypatch, fault, genus, want):
    fault(monkeypatch)
    assert sweeps.sweep_fit(genus, genus).violations == [want]
