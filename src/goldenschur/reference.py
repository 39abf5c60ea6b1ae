"""Previously reported numeric reference values for the N = 12 family.

These numbers come from the external reference tables this library is built
to cross-check.  Two groups are *informational only* — their generating
construction is not available here, so the verify suites report them without
asserting them:

* the curvature samples in :data:`KAPPA_TABLE` (no generating Hessian family
  is specified for them), and
* the fitted law constants :data:`REPORTED_A` / :data:`REPORTED_B`, whose
  bracket residual is decidedly nonzero (≈ −6.2514498) and is surfaced as a
  diagnostic rather than asserted away.

:data:`SUITES` names the verification suites, after the tables they
reproduce.  The module imports nothing, so the CLI offers the names without
loading the suites or their report records.
"""

from __future__ import annotations

__all__ = [
    "REPORTED_A",
    "REPORTED_B",
    "REPORTED_M_RHO_SQ",
    "REPORTED_N",
    "KAPPA_TABLE",
    "SUITES",
]

#: Reported quadratic-law constants for (N, m_ρ²) = (12, 2).
REPORTED_A = 0.707473678
REPORTED_B = -1.060165816
REPORTED_M_RHO_SQ = 2.0
REPORTED_N = 12

#: Reported curvature samples: (q label, κ, κ′, minimal-polynomial residual).
#: The golden-point row quotes κ′ ≈ 0 and residual exactly 0.
KAPPA_TABLE: tuple[tuple[str, float, float, float], ...] = (
    ("0.38", 0.125, 0.031, 0.003),
    ("phi^-2", 0.121, 0.0, 0.0),
    ("0.40", 0.127, 0.029, -0.004),
)

#: Names of the verification suites in :mod:`goldenschur.verify`; ``all`` runs
#: the others in order.
SUITES = (
    "appendix-b",
    "appendix-c",
    "appendix-d",
    "appendix-h",
    "schur-properties",
    "lockin",
    "all",
)
