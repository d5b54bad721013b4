"""Dehn-twist generator combinatorics with verifiable fixed-point certificates.

The package models the union of the standard twist generator curves on a
closed orientable surface as a ribbon graph, classifies the enclosing
subsurface of every connected subset, and derives/re-checks certificates
that the whole twist group fixes a point whenever it acts in dimension
below the genus.  Each layer is imported from its own module, such as
``twistcert.bootstrap``, and reaches another only through its module
(``lk.curve_names``); importing the package alone loads none of them.
It holds only the version, :class:`SweepResult`, the report record of
the sweeps and of the CLI's nerve demos, so that the demos run without
the sweeps' layers, and :func:`_make_checked`, which lets the records of
``surface`` execute without ``lickorish``.
"""

import time

__version__ = "0.5.0"


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


def _make_checked(cls, iterable):
    """namedtuple's ``_make``, which ``_replace`` calls, through ``cls(...)`` and so its checks."""
    return cls(*iterable)
