"""Sweep helpers: subset counts and result merging."""

from __future__ import annotations

from twistcert import sweeps


def test_size_sweep_counts_connected_subsets():
    result = sweeps.sweep_size_soundness(2, 5)
    assert result.checked == 420  # 15 + 45 + 111 + 249 connected subsets
    assert result.violations == []


def test_sweep_results_merge():
    a = sweeps.SweepResult("x", checked=2, violations=["v1"])
    b = sweeps.SweepResult("x", checked=3, violations=["v2"])
    a.merge(b)
    assert a.checked == 5
    assert a.violations == ["v1", "v2"]
    assert not a.passed
