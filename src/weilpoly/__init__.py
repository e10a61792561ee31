"""Exact arithmetic for Weil polynomials over finite fields.

Three questions, answered with certified exact arithmetic:

  * is a monic integer polynomial a q-Weil polynomial (weil.is_weil);
  * does a degree-12 polynomial satisfy the necessary coefficient bounds
    (bounds12.corollary_bounds, bounds12.trivial_bounds);
  * is a degree-14 Weil polynomial the characteristic polynomial of
    Frobenius of a simple 7-dimensional abelian variety (classify7.classify).

`import weilpoly` loads no submodule.  A submodule is imported when one of
its names, or the submodule itself, is first read from the package
(PEP 562), so `weilpoly.is_weil` loads `weil` and what it imports, not
`padic` or `census`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds12": (
        "BoundsReport",
        "Status",
        "corollary_bounds",
        "lemma_check",
        "lemma_quantities",
        "trivial_bounds",
    ),
    "census": ("EnumerationSpec", "cross_check", "enumerate_weil"),
    "classify7": ("Classification", "classify", "multiplicity_options", "power_case"),
    "errors": (
        "DomainMismatchError",
        "ExactnessError",
        "PrecisionExhausted",
        "StructuralError",
        "UncertifiedProfileError",
        "UnprovenPrimeError",
        "WeilpolyError",
    ),
    "factorint": ("factor_over_integers", "is_irreducible_over_z"),
    "lmfdb": ("lmfdb_reconcile",),
    "newton": (
        "NewtonPolygon",
        "lattice_vertex_check",
        "load_case_table",
        "newton_polygon",
        "polygon_case_id",
    ),
    "padic": ("FactorRecord", "PadicFactorProfile", "qp_factor_profile"),
    "polynomial": ("IntPoly", "poly_from_string", "poly_to_string"),
    "quadreal": ("QuadPoly", "QuadReal"),
    "sturm": ("all_roots_real_positive", "sturm_count"),
    "weil": (
        "WeilParams",
        "WeilVerdict",
        "build_f_ftilde",
        "check_symmetry",
        "chi_from_a",
        "companion_poly",
        "factor_weil",
        "is_weil",
        "real_root_reduction",
        "symmetric_v",
    ),
}

_SUBMODULES = frozenset(_EXPORTS) | {
    "arith",
    "cli",
    "fpoly",
    "hensel",
    "intervals",
    "oracle",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
