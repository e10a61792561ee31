"""Exact arithmetic for Weil polynomials over finite fields.

Three questions, answered with certified exact arithmetic:

  * is a monic integer polynomial a q-Weil polynomial (weil.is_weil);
  * does a degree-12 polynomial satisfy the necessary coefficient bounds
    (bounds12.corollary_bounds, bounds12.trivial_bounds);
  * is a degree-14 Weil polynomial the characteristic polynomial of
    Frobenius of a simple 7-dimensional abelian variety (classify7.classify).
"""

from .bounds12 import (
    BoundsReport,
    Status,
    corollary_bounds,
    lemma_check,
    lemma_quantities,
    trivial_bounds,
)
from .census import EnumerationSpec, cross_check, enumerate_weil
from .classify7 import Classification, classify, multiplicity_options, power_case
from .errors import (
    DomainMismatchError,
    ExactnessError,
    PrecisionExhausted,
    StructuralError,
    UncertifiedProfileError,
    UnprovenPrimeError,
    WeilpolyError,
)
from .factorint import factor_over_integers, is_irreducible_over_z
from .lmfdb import lmfdb_reconcile
from .newton import (
    NewtonPolygon,
    lattice_vertex_check,
    load_case_table,
    newton_polygon,
    polygon_case_id,
)
from .padic import FactorRecord, PadicFactorProfile, qp_factor_profile
from .polynomial import IntPoly, QuadPoly, poly_from_string, poly_to_string
from .quadreal import QuadReal
from .sturm import all_roots_real_positive, sturm_count
from .weil import (
    WeilParams,
    WeilVerdict,
    build_f_ftilde,
    check_symmetry,
    chi_from_a,
    companion_poly,
    factor_weil,
    is_weil,
    real_root_reduction,
    symmetric_v,
)

__version__ = "0.1.0"
