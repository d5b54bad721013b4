"""Sweep helpers: subset counts."""

from __future__ import annotations

from twistcert import sweeps


def test_size_sweep_counts_connected_subsets():
    result = sweeps.sweep_size_soundness(2, 5)
    assert result.checked == 420  # 15 + 45 + 111 + 249 connected subsets
    assert result.violations == []
