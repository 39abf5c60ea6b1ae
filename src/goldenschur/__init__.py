"""goldenschur — exact golden-point identities and Schur-curvature checks.

Exact arithmetic in Q(√5) for the folded weight family ``x_r ∝ q^r``, the
integer reduction of golden-point powers, band/collective Schur curvature of
D_N-equivariant Hessian families, and the quadratic-law stationarity story
at ``q⋆ = (3 − √5)/2`` — plus the verification suites behind the
``goldenschur`` command.

The public names below are loaded on first access (PEP 562).  No module
imports numpy; the lazy names keep each command's import set small, which
matters cold, where every module loaded is compiled from source.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "floatlaw": ("QuadLawFit", "quadratic_law_fit"),
    "folded": (
        "FoldedMoments",
        "FoldedSums",
        "folded_weights",
        "moments",
        "sums_closed",
    ),
    "golden": (
        "GoldenPower",
        "golden_power_table",
        "lambda_n",
    ),
    "lockin": (
        "QuadLawCoeffs",
        "StationarityReport",
        "bracket_residual",
        "f_red_prime_q",
        "f_red_q",
        "kappa_quadratic",
        "stationarity_check",
        "synthesize_consistent_ab",
    ),
    "qfield": ("PHI", "QSTAR", "SQRT5", "GoldenBasis", "Q5", "decimal_str"),
    "schur": (
        "CurvatureScan",
        "ExpTerm",
        "FamilyValidationError",
        "HessianFamily",
        "SplitGeometry",
        "build_split",
        "family_from_dict",
        "kappa_convexity_scan",
        "load_family",
        "make_family",
        "schur_curvature",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
