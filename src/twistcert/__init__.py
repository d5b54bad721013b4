"""Dehn-twist generator combinatorics with verifiable fixed-point certificates.

The package models the union of the standard twist generator curves on a
closed orientable surface as a ribbon graph, classifies the enclosing
subsurface of every connected subset, and derives/re-checks certificates
that the whole twist group fixes a point whenever it acts in dimension
below the genus.
"""

__version__ = "0.4.0"

from .lickorish import (  # noqa: F401
    CurveSet,
    EnclosureClaim,
    Interval,
    IntervalKind,
    LickorishError,
    chain_order,
    classify_chain,
    curve_names,
    enclosing_interval,
    extended_support,
    intersecting_pairs,
    interval_set,
    lam,
    size_classify,
)
from .surface import (  # noqa: F401
    AssemblyPlan,
    RibbonGraph,
    SubsurfaceReport,
    SurfaceError,
    build_lickorish_surface,
    complement_census,
    lickorish_surface,
    min_enclosing_subsurface,
    pack_subsurfaces,
)
from .nervecplx import (  # noqa: F401
    BettiVector,
    SimplicialComplex,
    betti_z2,
    boundary_simplex,
    full_simplex,
    is_homology_sphere,
    join,
    nerve,
)
from .bootstrap import (  # noqa: F401
    Axiom,
    BootstrapError,
    Certificate,
    CountCheck,
    Failure,
    Theorem,
    Violation,
    certificate_from_json,
    count_inequality,
    derive_kg,
    derive_main,
    derive_technical,
    genus1_step,
    verify,
)
