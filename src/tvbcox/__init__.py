"""Exact-arithmetic toolkit for toric vector bundles given by (M, D) data."""

__version__ = "0.1.0"

from .bundle import (  # noqa: F401
    BundleData,
    ci_stability,
    classify,
    is_complete_intersection,
    make_bundle,
    region_table,
    uniform_sparse_stability,
)
from .linalg import rational_rank  # noqa: F401
from .poly import (  # noqa: F401
    CapExceeded,
    Ideal,
    PolyRing,
    RingMap,
    buchberger,
    eliminate,
    ideal_equal,
    is_groebner_basis,
    normal_form,
    ring_map_kernel,
    symbolic_det,
)
from .schur import cauchy_verify, schur_dim  # noqa: F401
