"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import importlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import goldenschur
from goldenschur.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

FAMILY_DOC = {
    "N": 6,
    "m_rho_sq": 2.0,
    "u": [math.cos(2 * math.pi * k / 6) for k in range(6)],
    "C0": {"circulant": [2.5, 0.5, 0.0, 0.0, 0.0, 0.5]},
    "terms": [
        {"s": 1.0, "C": {"circulant": [1.0, 0.5, 0.0, 0.0, 0.0, 0.5]}},
        {"s": -0.7, "C": {"circulant": [1.5, 0.0, 0.5, 0.0, 0.5, 0.0]}},
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "suite",
    ["appendix-b", "appendix-c", "appendix-d", "appendix-h", "schur-properties", "lockin"],
)
def test_verify_each_suite_passes(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_json_document(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "appendix-d", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "appendix-d"
    statuses = {r["status"] for r in doc["checks"]}
    assert statuses <= {"pass", "info"}
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["ok"] is True
    assert all(
        {"id", "description", "expected", "actual", "basis", "status"} <= set(r)
        for r in doc["checks"]
    )


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "appendix-c", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert "status" in header
    idx = header.index("status")
    assert {r[idx] for r in body} <= {"pass", "info"}


def test_verify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "lockin", "--format", "json", "--seed", "3")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "lockin", "--format", "json", "--seed", "3")
    assert out1 == out2


#: ``verify --suite all`` records in order: 33 checks and 4 informational rows.
#: The benchmark counts them, so a change here is a change to the benchmark.
VERIFY_ALL_IDS = [
    "b.closed-vs-brute", "b.sums-qstar", "b.moments-qstar", "b.derivatives-qstar",
    "b.decimals",
    "c.sums-golden", "c.moments-golden", "c.lambda-12", "c.basis-round-trip",
    "d.reduction-table", "d.fibonacci-closed-form", "d.power-identity",
    "d.fibonacci-convention",
    "h.moments-half", "h.moments-third", "h.two-point-round-trip", "h.bracket-consistency",
    "s.split-projector", "s.variational", "s.matrix-convexity", "s.kappa-convexity",
    "s.exp-identity-family", "s.constant-family", "s.strict-witness",
    "s.negative-control-psd", "s.negative-control-equivariance", "s.q-class-uniform",
    "s.reported-kappa[0.38]", "s.reported-kappa[phi^-2]", "s.reported-kappa[0.40]",
    "l.bracket-identity", "l.synthesized-stationarity", "l.uniqueness",
    "l.zero-coefficients", "l.derivative-gap", "l.degenerate-n1", "l.reported-constants",
]


def test_verify_all_check_ids_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["id"] for c in checks] == VERIFY_ALL_IDS
    statuses = [c["status"] for c in checks]
    assert (statuses.count("pass"), statuses.count("info")) == (33, 4)


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "appendix-z"])


@pytest.mark.parametrize(
    "suite",
    ["appendix-b", "appendix-c", "appendix-d", "appendix-h", "schur-properties", "lockin", "all"],
)
def test_verify_rejects_negative_seed(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_golden_exact(capsys):
    code, out, _ = run_cli(capsys, "moments", "--N", "12", "--q", "phi^-2", "--format", "exact")
    assert code == 0
    assert "13/2 - 131/60·√5" in out
    assert "-1/20 + 131/30·q⋆" in out
    assert "83880 - 37512·√5" in out
    assert "719/720" in out


def test_moments_rational(capsys):
    code, out, _ = run_cli(capsys, "moments", "--N", "12", "--q", "1/2", "--format", "exact")
    assert code == 0
    assert "2726/1365" in out
    assert "4095/4096" in out


def test_moments_decimal(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--N", "12", "--q", "qstar", "--format", "decimal", "--digits", "15"
    )
    assert code == 0
    assert "1.617918249125459" in out


def test_moments_float_q(capsys):
    code, out, _ = run_cli(capsys, "moments", "--N", "12", "--q", "0.5")
    assert code == 0
    assert "1.9970695" in out  # I₁(1/2) = 2726/1365


@pytest.mark.parametrize("bad", ["1", "0", "3/2", "x"])
def test_moments_rejects_bad_q(capsys, bad):
    code, _, err = run_cli(capsys, "moments", "--N", "12", "--q", bad)
    assert code == 2
    assert "error" in err


def test_moments_rejects_negative_q(capsys):
    code, _, err = run_cli(capsys, "moments", "--N", "12", "--q=-1/2")
    assert code == 2


#: ``moments --N 12 --q <q> --format <fmt>`` stdout, by q and format.
MOMENTS_12_OUTPUT = {
    ("phi^-2", "exact"): """\
N = 12, q = q⋆ = (3 − √5)/2
  S0 = 83880 - 37512·√5 = -28656 + 75024·q⋆
  S1 = 954726 - 426966·√5 = -326172 + 853932·q⋆
  S2 = 10950528 - 4897224·√5 = -3741144 + 9794448·q⋆
  S3 = 126360432 - 56510100·√5 = -43169868 + 113020200·q⋆
  I1 = 13/2 - 131/60·√5 = -1/20 + 131/30·q⋆
  I2 = 805/12 - 1703/60·√5 = -271/15 + 1703/30·q⋆
  I3 = 6071/8 - 13373/40·√5 = -2441/10 + 13373/20·q⋆
 Var = 719/720
 I1' = 719/720
 I2' = 9347/720 - 485/144·√5 = 259/90 + 485/72·q⋆
""",
    ("phi^-2", "decimal"): """\
N = 12, q = q⋆ = (3 − √5)/2
  S0 = 0.618028027889
  S1 = 0.999918824792
  S2 = 2.234956569904
  S3 = 6.984689134277
  I1 = 1.617918249125
  I2 = 3.616270571964
  I3 = 11.301573422383
 Var = 0.998611111111
 I1' = 0.998611111111
 I2' = 5.450743270226
""",
    ("phi^-2", "both"): """\
N = 12, q = q⋆ = (3 − √5)/2
  S0 = 83880 - 37512·√5 = -28656 + 75024·q⋆ ≈ 0.618028027889
  S1 = 954726 - 426966·√5 = -326172 + 853932·q⋆ ≈ 0.999918824792
  S2 = 10950528 - 4897224·√5 = -3741144 + 9794448·q⋆ ≈ 2.234956569904
  S3 = 126360432 - 56510100·√5 = -43169868 + 113020200·q⋆ ≈ 6.984689134277
  I1 = 13/2 - 131/60·√5 = -1/20 + 131/30·q⋆ ≈ 1.617918249125
  I2 = 805/12 - 1703/60·√5 = -271/15 + 1703/30·q⋆ ≈ 3.616270571964
  I3 = 6071/8 - 13373/40·√5 = -2441/10 + 13373/20·q⋆ ≈ 11.301573422383
 Var = 719/720 ≈ 0.998611111111
 I1' = 719/720 ≈ 0.998611111111
 I2' = 9347/720 - 485/144·√5 = 259/90 + 485/72·q⋆ ≈ 5.450743270226
""",
    ("1/2", "exact"): """\
N = 12, q = 1/2
  S0 = 4095/4096
  S1 = 4089/2048
  S2 = 12189/2048
  S3 = 51831/2048
  I1 = 2726/1365
  I2 = 8126/1365
  I3 = 886/35
 Var = 3660914/1863225
 I1' = 3660914/1863225
 I2' = 25014734/1863225
""",
    ("1/2", "decimal"): """\
N = 12, q = 1/2
  S0 = 0.999755859375
  S1 = 1.996582031250
  S2 = 5.951660156250
  S3 = 25.308105468750
  I1 = 1.997069597070
  I2 = 5.953113553114
  I3 = 25.314285714286
 Var = 1.964826577574
 I1' = 1.964826577574
 I2' = 13.425503629460
""",
    ("1/2", "both"): """\
N = 12, q = 1/2
  S0 = 4095/4096 ≈ 0.999755859375
  S1 = 4089/2048 ≈ 1.996582031250
  S2 = 12189/2048 ≈ 5.951660156250
  S3 = 51831/2048 ≈ 25.308105468750
  I1 = 2726/1365 ≈ 1.997069597070
  I2 = 8126/1365 ≈ 5.953113553114
  I3 = 886/35 ≈ 25.314285714286
 Var = 3660914/1863225 ≈ 1.964826577574
 I1' = 3660914/1863225 ≈ 1.964826577574
 I2' = 25014734/1863225 ≈ 13.425503629460
""",
}


@pytest.mark.parametrize("q, fmt", sorted(MOMENTS_12_OUTPUT))
def test_moments_output_pinned(capsys, q, fmt):
    code, out, err = run_cli(capsys, "moments", "--N", "12", "--q", q, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == MOMENTS_12_OUTPUT[q, fmt]


# ---------------------------------------------------------------------------
# lambda / golden-table
# ---------------------------------------------------------------------------


def test_lambda_command(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--N", "12", "--digits", "10")
    assert code == 0
    assert "13 - 2425/719·√5" in out
    assert "5.4583242762" in out


LAMBDA_12_OUTPUT = {
    "table": "Λ(12) = 13 - 2425/719·√5 = 2072/719 + 4850/719·q⋆ ≈ 5.4583242762\n",
    "csv": (
        "key,value\n"
        "N,12\n"
        "sqrt5_basis,13 - 2425/719·√5\n"
        "golden_basis,2072/719 + 4850/719·q⋆\n"
        "decimal,5.4583242762\n"
    ),
    "json": (
        "{\n"
        '  "N": 12,\n'
        '  "decimal": "5.4583242762",\n'
        '  "golden_basis": "2072/719 + 4850/719\\u00b7q\\u22c6",\n'
        '  "sqrt5_basis": "13 - 2425/719\\u00b7\\u221a5"\n'
        "}\n"
    ),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_lambda_output_pinned(capsys, fmt):
    code, out, err = run_cli(capsys, "lambda", "--N", "12", "--format", fmt)
    assert (code, err) == (0, "")
    assert out == LAMBDA_12_OUTPUT[fmt]


def test_lambda_rejects_degenerate(capsys):
    code, _, err = run_cli(capsys, "lambda", "--N", "1")
    assert code == 2
    assert "N >= 2" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_lambda_rejects_a_nonpositive_size(capsys, n):
    code, out, err = run_cli(capsys, "lambda", "--N", n)
    assert (code, out) == (2, "")
    assert err == f"error: family size must be a positive integer, got {n}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--N", "12", "--q", q, "--format", fmt)
        for q in ("1/2", "phi^-2")
        for fmt in ("exact", "decimal", "both")
    ]
    + [("lambda", "--N", "12", "--format", fmt) for fmt in ("table", "csv", "json")]
    + [("lambda", "--N", "1")],
)
def test_negative_digits_rejected_in_every_format(capsys, argv):
    # rejected before anything is computed or printed, whatever the format
    code, out, err = run_cli(capsys, *argv, "--digits", "-1")
    assert (code, out, err) == (2, "", "error: digits must be >= 0\n")


def test_golden_table(capsys):
    code, out, _ = run_cli(capsys, "golden-table", "--max-m", "12")
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    assert rows[0] == ["m", "a", "b"]
    assert rows[1] == ["0", "0", "1"]
    assert rows[-1] == ["12", "46368", "-17711"]


#: ``golden-table --max-m 5 --format <fmt>`` stdout, by format.
GOLDEN_TABLE_5_OUTPUT = {
    "table": """\
   m  a_m  b_m
   0   0    1
   1   1    0
   2   3   -1
   3   8   -3
   4  21   -8
   5  55  -21
""",
    "csv": "m,a,b\n0,0,1\n1,1,0\n2,3,-1\n3,8,-3\n4,21,-8\n5,55,-21\n",
    "json": json.dumps(
        [{"a": a, "b": b, "m": m} for m, a, b in [
            (0, 0, 1), (1, 1, 0), (2, 3, -1), (3, 8, -3), (4, 21, -8), (5, 55, -21)
        ]],
        indent=2,
    )
    + "\n",
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_golden_table_output_pinned(capsys, fmt):
    code, out, err = run_cli(capsys, "golden-table", "--max-m", "5", "--format", fmt)
    assert (code, err) == (0, "")
    assert out == GOLDEN_TABLE_5_OUTPUT[fmt]


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


#: q⋆ correctly rounded to a float, as the exact interval's ends are printed
QSTAR_FLOAT = 0.38196601125010515


def test_stationarity_synthesized(capsys):
    code, out, _ = run_cli(capsys, "stationarity", "--B", "-1")
    assert code == 0
    assert "15/2 - 2425/1438·√5" in out
    assert out.endswith(
        "sign changes of F'_red on 0 < q < 1: 1 (−c/B = Λ(q⋆) lies in (3, 13), "
        "where Λ rises strictly: the zero is q⋆)\n"
    )


def test_stationarity_reports_interval_bracketing_qstar(capsys):
    code, out, _ = run_cli(capsys, "stationarity", "--B=-1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["sign_change_intervals_q"] == [[QSTAR_FLOAT] * 2]


def test_stationarity_zero_b_is_degenerate(capsys):
    # B = 0 synthesizes c = 0: F′_red vanishes identically, with no sign change
    code, out, err = run_cli(capsys, "stationarity", "--B=0")
    assert (code, err) == (1, "")
    assert out.endswith(
        "sign changes of F'_red on 0 < q < 1: 0 (B = c = 0, so F'_red vanishes identically)\n"
    )


STATIONARITY_B1 = {
    "N": 12,
    "B": "-1",
    "m_rho_sq": "2",
    "A_exact": "15/2 - 2425/1438·√5 = 1755/719 + 2425/719·q⋆",
    "A_decimal": "3.729162138083",
    "lambda_exact": "13 - 2425/719·√5 = 2072/719 + 4850/719·q⋆",
    "lambda_decimal": "5.4583242762",
    "bracket_residual": "0",
    "f_prime_at_golden_point": "0",
    "stationary": True,
    "sign_changes": 1,
}
STATIONARITY_B1_INTERVALS = [[QSTAR_FLOAT, QSTAR_FLOAT]]


def test_stationarity_csv_pinned(capsys):
    code, out, err = run_cli(capsys, "stationarity", "--B", "-1", "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert out.endswith("\n")
    assert lines[:-1] == ["key,value"] + [f"{k},{v}" for k, v in STATIONARITY_B1.items()]
    key, _, value = lines[-1].partition(",")
    assert key == "sign_change_intervals_q"
    assert json.loads(value) == STATIONARITY_B1_INTERVALS


def test_stationarity_json_pinned(capsys):
    code, out, err = run_cli(capsys, "stationarity", "--B", "-1", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "\\u221a5" in out  # ASCII-escaped, as json.dumps writes by default
    assert doc.pop("sign_change_intervals_q") == STATIONARITY_B1_INTERVALS
    assert doc == STATIONARITY_B1


def test_stationarity_rejects_bad_b(capsys):
    code, _, err = run_cli(capsys, "stationarity", "--B", "nope")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [("--B=1e400",), ("--B=-1e-400",), ("--B=1e308", "--N", "3"), ("--B=-1e308", "--N", "3"),
     ("--B=1e307",), ("--B=1e-323",)],
    ids=["1e400", "-1e-400", "1e308-N3", "-1e308-N3", "1e307", "1e-323"],
)
def test_stationarity_decides_coefficients_exactly(capsys, argv):
    # A, B or the slope 2A − 2B − 8/m_ρ² overflows or underflows a float, or
    # F′_red in floats overflows (B = 1e307) or keeps one bit of B (1e-323,
    # subnormal); the decision reads the coefficients exactly and finds the
    # one zero at q⋆
    code, out, err = run_cli(capsys, "stationarity", *argv, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["stationary"], doc["sign_changes"]) == (True, 1)
    assert doc["sign_change_intervals_q"] == [[QSTAR_FLOAT] * 2]


@pytest.mark.parametrize("b", ["1e-16", "1e-17", "1e-200", "1e-300"])
def test_stationarity_small_b_brackets_the_golden_point(capsys, b):
    # the exact slope 2A − 2B − 8/m_ρ² keeps B·Λ: formed from A rounded to a
    # float, it would be −2B, and F′_red would seem to have no zero
    code, out, err = run_cli(capsys, "stationarity", f"--B={b}", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["stationary"], doc["sign_changes"]) == (True, 1)
    [[lo, hi]] = doc["sign_change_intervals_q"]
    assert lo == QSTAR_FLOAT == hi


@pytest.mark.parametrize("n", ["1", "2"])
def test_stationarity_rejects_n_below_3(capsys, n):
    # Λ(2) = 3 at every q: the synthesized F′_red vanishes identically
    code, out, err = run_cli(capsys, "stationarity", "--B", "-1", "--N", n)
    assert (code, out) == (2, "")
    assert err.startswith("error: stationarity synthesis needs N >= 3 (")
    assert err.endswith(f"got N = {n}\n")


@pytest.mark.parametrize("m_rho_sq", ["0", "-2"])
def test_stationarity_rejects_nonpositive_m_rho_sq(capsys, m_rho_sq):
    code, out, err = run_cli(capsys, "stationarity", "--B", "-1", "--m-rho-sq", m_rho_sq)
    assert (code, out) == (2, "")
    assert err == f"error: m_rho_sq must be positive, got {m_rho_sq}\n"


def test_stationarity_evaluates_each_point_once(capsys, monkeypatch):
    # every value is exact: the golden point takes the exact numerators and
    # the φᴺ-scaled kernel, and the decision needs no grid, so the closed
    # forms that floats run are never called
    import goldenschur.folded as folded

    calls = {"exact": 0, "float": 0}
    original = folded._closed_sums

    def counted(n, q):
        calls["float" if isinstance(q, float) else "exact"] += 1
        return original(n, q)

    monkeypatch.setattr(folded, "_closed_sums", counted)
    code, _, err = run_cli(capsys, "stationarity", "--B", "-1")
    assert (code, err) == (0, "")
    assert calls == {"exact": 0, "float": 0}


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["stationarity", "--B", "nan"], "B", "nan"),
        (["stationarity", "--B", "inf"], "B", "inf"),
        (["stationarity", "--B=-inf"], "B", "-inf"),
        (["stationarity", "--B", "-1", "--m-rho-sq", "inf"], "m-rho-sq", "inf"),
        (["moments", "--N", "12", "--q", "nan"], "q", "nan"),
    ],
)
def test_non_finite_numbers_are_bad_input(capsys, argv, option, text):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {option}: cannot parse {text!r} as an exact rational\n"


# ---------------------------------------------------------------------------
# fit-ab
# ---------------------------------------------------------------------------


def write_round_trip_points(tmp_path):
    """Exact κ samples of A = 7/3, B = −5/4 at N = 12, q = 1/2, 1/3, 2/3."""
    from fractions import Fraction

    from goldenschur.lockin import QuadLawCoeffs, kappa_quadratic

    coeffs = QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12)
    lines = ["q,kappa"]
    for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
        lines.append(f"{q},{kappa_quadratic(coeffs, q)}")
    path = tmp_path / "points.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_ab_round_trip(capsys, tmp_path):
    path = write_round_trip_points(tmp_path)
    code, out, _ = run_cli(capsys, "fit-ab", "--points", str(path), "--N", "12")
    assert code == 0
    assert "7/3" in out
    assert "-5/4" in out
    assert "0" in out  # zero held-out residual


FIT_AB_OUTPUT = {
    "table": (
        "N = 12, 3 samples\n"
        "A = 7/3 ≈ 2.333333333333\n"
        "B = -5/4 ≈ -1.250000000000\n"
        "residuals: ['0'] (max |r| = 0.000000e+00)\n"
    ),
    "csv": (
        "key,value\n"
        "N,12\n"
        "A,7/3\n"
        "B,-5/4\n"
        "A_decimal,2.333333333333\n"
        "B_decimal,-1.250000000000\n"
        'residuals,["0"]\n'
        "max_abs_residual,0.0\n"
    ),
    "json": (
        "{\n"
        '  "A": "7/3",\n'
        '  "A_decimal": "2.333333333333",\n'
        '  "B": "-5/4",\n'
        '  "B_decimal": "-1.250000000000",\n'
        '  "N": 12,\n'
        '  "max_abs_residual": 0.0,\n'
        '  "residuals": [\n'
        '    "0"\n'
        "  ]\n"
        "}\n"
    ),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_fit_ab_output_pinned(capsys, tmp_path, fmt):
    path = write_round_trip_points(tmp_path)
    code, out, err = run_cli(
        capsys, "fit-ab", "--points", str(path), "--N", "12", "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out == FIT_AB_OUTPUT[fmt]


def test_fit_ab_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit-ab", "--points", str(tmp_path / "none.csv"))
    assert code == 2


def test_fit_ab_malformed_row(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("q,kappa\n1/2\n")
    code, _, err = run_cli(capsys, "fit-ab", "--points", str(path))
    assert code == 2
    assert "expected" in err


def test_fit_ab_header_after_comment(capsys, tmp_path):
    path = write_round_trip_points(tmp_path)
    path.write_text("# exact samples\n\n" + path.read_text())
    code, out, err = run_cli(capsys, "fit-ab", "--points", str(path), "--N", "12")
    assert (code, err) == (0, "")
    assert out == FIT_AB_OUTPUT["table"]


@pytest.mark.parametrize(
    "rows, message",
    [
        ("q,kappa\n1/2,nan\n1/3,5/11\n", "kappa: cannot parse 'nan' as an exact rational"),
        ("nan,3/7\n1/2,3/7\n1/3,5/11\n", "q: cannot parse 'nan' as an exact rational"),
        ("q,kappa\nq,kappa\n1/3,5/11\n", "q: cannot parse 'q' as an exact rational"),
        ("1/2,3/7\nq,kappa\n1/3,5/11\n", "q: cannot parse 'q' as an exact rational"),
    ],
)
def test_fit_ab_rejects_bad_rows(capsys, tmp_path, rows, message):
    # only the first row that is not blank or a comment may be a header, and
    # a header has no number in it
    path = tmp_path / "points.csv"
    path.write_text(rows)
    code, out, err = run_cli(capsys, "fit-ab", "--points", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# schur
# ---------------------------------------------------------------------------


@pytest.fixture()
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY_DOC))
    return str(path)


def test_schur_curve(capsys, family_file):
    code, out, _ = run_cli(capsys, "schur", family_file, "-2.0", "-0.1", "41")
    assert code == 0
    assert "convex" in out.lower()


def test_schur_csv_and_fit(capsys, family_file):
    code, out, _ = run_cli(
        capsys, "schur", family_file, "-2.0", "-0.1", "41", "--format", "csv", "--fit-law"
    )
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r and not r[0].startswith("#")]
    assert rows[0] == ["theta", "q", "kappa"]
    assert len(rows) == 42
    # curve values reproduce the library
    from goldenschur.schur import family_from_dict, schur_curvature

    fam = family_from_dict(FAMILY_DOC)
    theta0 = float(rows[1][0])
    assert math.isclose(float(rows[1][2]), schur_curvature(fam, theta0), rel_tol=1e-12)


#: ``schur <FAMILY_DOC> -2.0 -0.1 11 --fit-law`` stdout, by format.
SCHUR_PINNED = {
    "table": """\
κ_Schur curve, N = 6, 11 points
       theta           q           kappa
   -2.000000    0.135335      7.78548451
   -1.810000    0.163654      7.10878960
   -1.620000    0.197899      6.52227458
   -1.430000    0.239309      6.01594510
   -1.240000    0.289384      5.58131011
   -1.050000    0.349938      5.21124883
   -0.860000    0.423162      4.89990549
   -0.670000    0.511709      4.64261098
   -0.480000    0.618783      4.43583078
   -0.290000    0.748264      4.27713937
   -0.100000    0.904837      4.16522214
convexity: pass (min second difference 4.677417e-02)
quadratic-law fit: A = 9.910640404, B = -30.25251335, max |residual| = 1.371987e+01
""",
    "csv": """\
theta,q,kappa
-2,0.135335283237,7.78548450643
-1.81,0.163654136803,7.10878960268
-1.62,0.197898699084,6.52227458302
-1.43,0.239308922244,6.01594509749
-1.24,0.289384217939,5.58131011459
-1.05,0.349937749111,5.21124883289
-0.86,0.423162082318,4.89990549286
-0.67,0.511708577787,4.6426109844
-0.48,0.618783391806,4.43583077899
-0.29,0.748263567579,4.27713937358
-0.1,0.904837418036,4.1652221355
# convex_ok=True min_second_difference=4.677417e-02
# fit A=9.91064040439 B=-30.2525133544 max_abs_residual=1.371987e+01
""",
}


@pytest.mark.parametrize("fmt", sorted(SCHUR_PINNED))
def test_schur_output_pinned(capsys, family_file, fmt):
    code, out, err = run_cli(
        capsys, "schur", family_file, "-2.0", "-0.1", "11", "--fit-law", "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out == SCHUR_PINNED[fmt]


#: ``schur <FAMILY_DOC> -2.0 -0.5 4 --format <fmt>`` stdout.  Each format has
#: its own render branch, so each is pinned.
SCHUR_NO_FIT_PINNED = {
    "table": """\
κ_Schur curve, N = 6, 4 points
       theta           q           kappa
   -2.000000    0.135335      7.78548451
   -1.500000    0.223130      6.19372664
   -1.000000    0.367879      5.12383462
   -0.500000    0.606531      4.45529954
convexity: pass (min second difference 4.013569e-01)
""",
    "csv": """\
theta,q,kappa
-2,0.135335283237,7.78548450643
-1.5,0.223130160148,6.19372663743
-1,0.367879441171,5.1238346235
-0.5,0.606530659713,4.45529954164
# convex_ok=True min_second_difference=4.013569e-01
""",
    "json": """\
{
  "N": 6,
  "convexity": {
    "convex_ok": true,
    "min_second_difference": 0.40135693205762824,
    "violations": []
  },
  "curve": [
    {
      "kappa": 7.78548450643431,
      "q": 0.1353352832366127,
      "theta": -2.0
    },
    {
      "kappa": 6.193726637429618,
      "q": 0.22313016014842982,
      "theta": -1.5
    },
    {
      "kappa": 5.123834623504057,
      "q": 0.36787944117144233,
      "theta": -1.0
    },
    {
      "kappa": 4.455299541636124,
      "q": 0.6065306597126334,
      "theta": -0.5
    }
  ]
}
""",
}


@pytest.mark.parametrize("fmt", sorted(SCHUR_NO_FIT_PINNED))
def test_schur_output_pinned_without_fit(capsys, family_file, fmt):
    code, out, err = run_cli(capsys, "schur", family_file, "-2.0", "-0.5", "4", "--format", fmt)
    assert (code, err) == (0, "")
    assert out == SCHUR_NO_FIT_PINNED[fmt]


#: ``schur <FAMILY_DOC> -2.0 -0.5 4 --fit-law --format json`` stdout.
SCHUR_JSON_PINNED = """\
{
  "N": 6,
  "convexity": {
    "convex_ok": true,
    "min_second_difference": 0.40135693205762824,
    "violations": []
  },
  "curve": [
    {
      "kappa": 7.78548450643431,
      "q": 0.1353352832366127,
      "theta": -2.0
    },
    {
      "kappa": 6.193726637429618,
      "q": 0.22313016014842982,
      "theta": -1.5
    },
    {
      "kappa": 5.123834623504057,
      "q": 0.36787944117144233,
      "theta": -1.0
    },
    {
      "kappa": 4.455299541636124,
      "q": 0.6065306597126334,
      "theta": -0.5
    }
  ],
  "fit": {
    "A": 9.10684840741184,
    "B": -24.306361849873237,
    "max_abs_residual": 6.259764118437709
  }
}
"""


def test_schur_json_pinned(capsys, family_file):
    code, out, err = run_cli(
        capsys, "schur", family_file, "-2.0", "-0.5", "4", "--fit-law", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out == SCHUR_JSON_PINNED


@pytest.fixture()
def concave_family(monkeypatch):
    """``schur`` reads κ = 1 − 2e^θ/3 (strictly concave) from any file name.

    C₀ = I, and the term −e^θ·Q, with Q the circulant projector onto the
    Fourier modes 2 and 3, is band-supported (Q u = 0), so H_OO = 1.  The
    term is negative, so no file can hold this family: it is built from its
    two rows, symmetrized as a family file's rows are, and handed to the
    command in place of the loaded one.  (Validated families can be concave
    too: see ``tests/fixtures/concave-n4-*.json``.)
    """
    import numpy as np

    import goldenschur.schur as schur

    n = 5
    rev = (n - np.arange(n)) % n
    rows = [
        np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([-0.4 * math.cos(4 * math.pi * k / n) for k in range(n)]),
    ]
    c0, c1 = ((g + g[rev]) / 2 for g in rows)
    split = schur.build_split(n, 2.0, [math.cos(2 * math.pi * k / n) for k in range(n)])
    fam = schur.HessianFamily(split, schur.ExpTerm(0.0, c0), (schur.ExpTerm(1.0, c1),))
    monkeypatch.setattr(schur, "load_family", lambda path: fam)
    return "concave.json"


#: ``schur <concave family> -1.0 -0.2 5 --format <fmt>`` stdout: the failing
#: convexity lines of each format.
SCHUR_CONCAVE_PINNED = {
    "table": """\
κ_Schur curve, N = 5, 5 points
       theta           q           kappa
   -1.000000    0.367879      0.75474704
   -0.800000    0.449329      0.70044736
   -0.600000    0.548812      0.63412558
   -0.400000    0.670320      0.55311997
   -0.200000    0.818731      0.45417950
convexity: FAIL at indices [1, 2, 3] (min second difference -1.793486e-02)
""",
    "csv": """\
theta,q,kappa
-1,0.367879441171,0.754747039219
-0.8,0.449328964117,0.700447357255
-0.6,0.548811636094,0.634125575937
-0.4,0.670320046036,0.55311996931
-0.2,0.818730753078,0.454179497948
# convex_ok=False min_second_difference=-1.793486e-02
# violations at grid indices [1, 2, 3]
""",
    "json": """\
{
  "N": 5,
  "convexity": {
    "convex_ok": false,
    "min_second_difference": -0.017934864733819667,
    "violations": [
      1,
      2,
      3
    ]
  },
  "curve": [
    {
      "kappa": 0.7547470392190384,
      "q": 0.36787944117144233,
      "theta": -1.0
    },
    {
      "kappa": 0.7004473572551856,
      "q": 0.44932896411722156,
      "theta": -0.8
    },
    {
      "kappa": 0.6341255759373158,
      "q": 0.5488116360940264,
      "theta": -0.6
    },
    {
      "kappa": 0.5531199693095737,
      "q": 0.6703200460356393,
      "theta": -0.3999999999999999
    },
    {
      "kappa": 0.4541794979480121,
      "q": 0.8187307530779818,
      "theta": -0.2
    }
  ]
}
""",
}


@pytest.mark.parametrize("fmt", sorted(SCHUR_CONCAVE_PINNED))
def test_schur_concave_output_pinned(capsys, concave_family, fmt):
    code, out, err = run_cli(capsys, "schur", concave_family, "-1.0", "-0.2", "5", "--format", fmt)
    assert (code, err) == (1, "")
    assert out == SCHUR_CONCAVE_PINNED[fmt]


@pytest.mark.parametrize(
    "name, grid, violations",
    [
        # κ = 1 + 1/(3q + 1), concave in θ for q < 1/3
        ("concave-n4-s-minus1.json", ["-3.0", "-0.1", "30"], list(range(1, 20))),
        # κ = 1 + 100q/(3 + 100q), concave for q > 0.03
        ("concave-n4-s-plus1.json", [str(math.log(0.05)), str(math.log(0.95)), "101"],
         list(range(1, 100))),
    ],
)
def test_schur_fails_on_validated_concave_family(capsys, name, grid, violations):
    code, out, err = run_cli(capsys, "schur", str(FIXTURES / name), *grid)
    assert (code, err) == (1, "")
    assert f"\nconvexity: FAIL at indices {violations} (min second difference -" in out


def test_schur_overflow_is_a_computation_failure(capsys, family_file):
    # e^{1500} overflows math.exp; numpy must not turn it into a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "schur", family_file, "-2", "1500", "3")
    assert (code, out, err) == (1, "", "computation failed: math range error\n")
    assert caught == []


def test_schur_rejects_invalid_family(capsys, tmp_path):
    doc = dict(FAMILY_DOC)
    doc["C0"] = [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)]
    doc["C0"][0][0] = 9.0  # breaks circulant structure
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "schur", str(path), "-2.0", "-0.1", "11")
    assert code == 2
    assert "validation failed" in err
    assert "commutator" in err


@pytest.mark.parametrize(
    "grid, message",
    [
        (["-2.0", "-0.1", "2"], "at least 3 grid points"),
        (["-0.1", "-2.0", "11"], "theta_min < theta_max"),
        (["-0.5", "-0.5", "11"], "theta_min < theta_max"),
        (["--", "-inf", "-0.1", "11"], "theta_min = -inf is not finite"),
        (["-2", "inf", "5"], "theta_max = inf is not finite"),
        (["--", "-1e308", "1e308", "3"], "theta_max - theta_min = inf is not finite"),
    ],
)
def test_schur_rejects_bad_grid(capsys, family_file, grid, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "schur", family_file, *grid)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert caught == [] and "Warning" not in err


def _set_nan_generator(doc):
    doc["C0"]["circulant"][2] = math.nan


def _set_inf_dense(doc):
    g = [1.5, 0.0, 0.5, 0.0, 0.5, 0.0]
    dense = [[g[(j - i) % 6] for j in range(6)] for i in range(6)]
    dense[4][1] = math.inf
    doc["terms"][1]["C"] = dense


def _set_nan_u(doc):
    doc["u"][3] = math.nan


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (_set_nan_generator, "family validation failed:\n  - C0: has non-finite entries\n"),
        (_set_inf_dense, "family validation failed:\n  - terms[1].C (s=-0.7): has non-finite entries\n"),
        (_set_nan_u, "error: collective direction has non-finite entries\n"),
    ],
)
def test_schur_rejects_non_finite_family(capsys, tmp_path, corrupt, expected):
    doc = json.loads(json.dumps(FAMILY_DOC))
    corrupt(doc)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
    code, out, err = run_cli(capsys, "schur", str(path), "-2.0", "-0.1", "11")
    assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize("text", ["1e400", "Infinity"])
def test_schur_rejects_an_infinite_m_rho_sq(capsys, tmp_path, text):
    # json reads both as inf, which a positivity test alone lets through
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY_DOC).replace('"m_rho_sq": 2.0', f'"m_rho_sq": {text}'))
    code, out, err = run_cli(capsys, "schur", str(path), "-2.0", "-0.1", "11")
    assert (code, out, err) == (2, "", "error: m_rho_sq must be finite, got inf\n")


def _set_term(k, key, value):
    return lambda doc: doc["terms"][k].__setitem__(key, value)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_set_term(0, "s", None), "terms[0].s: expected a number, got null"),
        (lambda doc: doc.__setitem__("m_rho_sq", [2]), "m_rho_sq: expected a number, got [2]"),
        (lambda doc: doc["C0"]["circulant"].__setitem__(2, None),
         "C0.circulant[2]: expected a number, got null"),
        (_set_term(0, "s", 10**400), "terms[0].s: integer too large for a float"),
        (lambda doc: doc["u"].__setitem__(0, True), "u[0]: expected a number, got true"),
        (_set_term(1, "s", "1.0"), 'terms[1].s: expected a number, got "1.0"'),
    ],
    ids=["null-s", "list-m-rho-sq", "null-circulant-entry", "huge-s", "bool-u", "string-s"],
)
def test_schur_rejects_a_family_value_that_is_not_a_number(capsys, tmp_path, corrupt, message):
    # each is bad input, exit 2, with the field named; none reaches float()
    doc = json.loads(json.dumps(FAMILY_DOC))
    corrupt(doc)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "schur", str(path), "-2.0", "-0.1", "11")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: doc.pop("u"), "family document missing keys: ['u']"),
        (_set("C0", {"circ": [1.0] * 6}), "C0: matrix object must have exactly the key 'circulant'"),
        (_set("C0", {"circulant": [1.0] * 5}), "C0: circulant generator must be a list of 6 numbers"),
        (_set_term(1, "C", [[1.0] * 6] * 5),
         "terms[1].C: expected 6 rows of 6 numbers or a flat list of 36"),
        (_set_term(1, "C", [1.0] * 35),
         "terms[1].C: expected 6 rows of 6 numbers or a flat list of 36"),
        (_set("C0", "identity"), "C0: unsupported matrix encoding str"),
        (_set("N", 2), "N must be an integer >= 3, got 2"),
        (_set("N", 6.0), "N must be an integer >= 3, got 6.0"),
        (_set("u", [1.0] * 5), "u must be a list of 6 numbers"),
        (_set("terms", {"s": 1.0}), "terms must be a list of {'s', 'C'} objects"),
        (_set_term(0, "t", 1.0), "terms[0]: expected an object with exactly keys 's' and 'C'"),
    ],
    ids=["missing-key", "circulant-key", "generator-length", "dense-rows", "flat-length",
         "encoding", "small-n", "float-n", "u-length", "terms-object", "term-keys"],
)
def test_schur_rejects_a_malformed_family_document(capsys, tmp_path, corrupt, message):
    # each structural fault is bad input, exit 2, with the fault named
    doc = json.loads(json.dumps(FAMILY_DOC))
    corrupt(doc)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "schur", str(path), "-2.0", "-0.1", "11")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "not valid JSON (Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1))"),
        ("[1, 2]", "top-level JSON value must be an object"),
    ],
    ids=["invalid-json", "top-level-list"],
)
def test_schur_rejects_a_file_that_is_not_a_json_object(capsys, tmp_path, text, message):
    path = tmp_path / "family.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "schur", str(path), "-2.0", "-0.1", "11")
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def test_schur_circulant_family_needs_no_dense_linear_algebra(capsys, family_file, monkeypatch):
    # a circulant-encoded family is validated and scanned from the DFT of its
    # rows: no eigendecomposition, and no SVD for the band basis
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on the spectral route")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    code, out, err = run_cli(
        capsys, "schur", family_file, "-2.0", "-0.1", "11", "--fit-law", "--format", "table"
    )
    assert (code, err) == (0, "")
    assert out == SCHUR_PINNED["table"]


def test_schur_missing_file(capsys):
    code, _, err = run_cli(capsys, "schur", "/nonexistent/fam.json", "-2.0", "-0.1", "11")
    assert code == 2


# ---------------------------------------------------------------------------
# process-level entry points
# ---------------------------------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "goldenschur", "verify", "--suite", "appendix-d"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "appendix-d" in proc.stdout


# the modules of these that importing the CLI and running argv (if any) loads
_LOADED_HEAVY = """
import contextlib, io, sys
before = set(sys.modules)
from goldenschur.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if sys.argv[1:] else 0
heavy = {"numpy", "scipy", "dataclasses", "goldenschur.lockin", "goldenschur.report"}
print(code, sorted(heavy & (set(sys.modules) - before)))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--N", "12"],
        ["moments", "--N", "12", "--q", "phi^-2"],
        ["golden-table", "--max-m", "12"],
        ["stationarity", "--B", "-1"],
        ["fit-ab", "--points", "{points}", "--N", "12"],
        [],  # import goldenschur.cli alone
    ],
)
def test_exact_commands_load_no_numpy(tmp_path, argv):
    points = tmp_path / "points.csv"
    points.write_text("q,kappa\n1/2,3/7\n1/3,5/11\n")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_HEAVY, *(a.format(points=points) for a in argv)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # lockin is loaded only by the subcommands that compute with it
    lockin = argv[:1] in (["stationarity"], ["fit-ab"])
    assert proc.stdout.strip() == f"0 {['goldenschur.lockin'] if lockin else []}"


# the exact layers that importing the CLI and running argv loads
_LOADED_EXACT = """
import contextlib, io, sys
from goldenschur.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
exact = {"goldenschur.qfield", "goldenschur.folded", "goldenschur.golden"}
print(code, sorted(exact & set(sys.modules)))
"""


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_schur_loads_no_exact_layer(tmp_path, valid):
    doc = dict(FAMILY_DOC)
    if not valid:
        doc["C0"] = [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)]
        doc["C0"][0][0] = 9.0  # breaks circulant structure
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_EXACT, "schur", str(path), "-2", "-0.1", "11"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{0 if valid else 2} []"


def _invalid_family(tmp_path):
    doc = dict(FAMILY_DOC)
    doc["C0"] = [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)]
    doc["C0"][0][0] = 9.0  # breaks circulant structure
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fit", [False, True], ids=["no-fit", "fit-law"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_schur_loads_no_numpy(family_file, fmt, fit):
    # the spectral route runs on Python floats; lockin only computes the fit
    argv = ["schur", family_file, "-2.0", "-0.1", "11", "--format", fmt, *(["--fit-law"] * fit)]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_HEAVY, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"0 {['goldenschur.lockin'] if fit else []}"


def test_invalid_family_loads_no_numpy(tmp_path):
    argv = ["schur", _invalid_family(tmp_path), "-2.0", "-0.1", "11", "--fit-law"]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_HEAVY, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2 []"


# the CLI with numpy unimportable, as on an interpreter that has none
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from goldenschur.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        *(["{family}", "-2.0", "-0.1", "11", "--format", fmt, *fit]
          for fmt in ("table", "csv", "json") for fit in ([], ["--fit-law"])),
        [str(FIXTURES / "concave-n4-s-minus1.json"), "-3.0", "-0.1", "30"],  # exit 1
        ["{invalid}", "-2.0", "-0.1", "11"],  # exit 2
        ["{family}", "--", "-1e308", "1e308", "3"],  # exit 2
        ["{family}", "--", "-800", "800", "11"],  # singular block, exit 1
    ],
)
def test_schur_runs_without_numpy(capsys, tmp_path, family_file, argv):
    argv = ["schur", *(a.format(family=family_file, invalid=_invalid_family(tmp_path)) for a in argv)]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_golden_table_loads_only_golden(fmt):
    # the reduction table is integer arithmetic: no field, no power sums
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_EXACT, "golden-table", "--max-m", "12", "--format", fmt],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 ['goldenschur.golden']"


_ORACLE_LOADS = """
import sys
from fractions import Fraction
from goldenschur.lockin import QuadLawCoeffs
from goldenschur.oracle import f_red_prime_direct_q, fibonacci, sums_at_qstar, sums_bruteforce
from goldenschur.qfield import QSTAR
sums_bruteforce(12, Fraction(1, 2)), fibonacci(24), sums_at_qstar(12)
f_red_prime_direct_q(QuadLawCoeffs(Fraction(3, 5), -1, 12), QSTAR)
print("numpy" in sys.modules)
"""


def test_exact_oracles_load_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _ORACLE_LOADS], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_schur_module_loads_neither_numpy_nor_dataclasses():
    code = (
        "import sys, goldenschur.schur\n"
        "print([m for m in ('numpy', 'dataclasses') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_schur_module_loads_no_scipy():
    # nor the exact folded layer: the matrix layer takes its weights as floats
    code = (
        "import sys, goldenschur.schur\n"
        "print([m for m in ('scipy', 'goldenschur.folded') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"



def _records():
    from fractions import Fraction

    from goldenschur.folded import moments, sums_closed
    from goldenschur.golden import golden_power_table
    from goldenschur.lockin import QuadLawCoeffs, quadratic_law_fit, stationarity_check
    from goldenschur.report import CheckRecord

    half, third = Fraction(1, 2), Fraction(1, 3)
    return {
        "FoldedSums": sums_closed(3, half),
        "FoldedMoments": moments(3, half),
        "GoldenPower": golden_power_table(3)[3],
        "QuadLawCoeffs": QuadLawCoeffs(1, -2, 12),
        "QuadLawFit": quadratic_law_fit(
            [(half, Fraction(3, 7)), (third, Fraction(5, 11)), (Fraction(1, 4), 1)], 3
        ),
        "StationarityReport": stationarity_check(QuadLawCoeffs(1, 1, 3)),
        "CheckRecord": CheckRecord("x.id", "desc", "pass", "1", "1", "direct"),
    }


# the repr of each record as the frozen dataclasses of earlier versions printed
# it; FoldedMoments has since gained its last field, i2_prime
_RECORD_REPRS = {
    "FoldedSums": "FoldedSums(n=3, q=Fraction(1, 2), s0=Fraction(7, 8), s1=Fraction(11, 8), "
    "s2=Fraction(21, 8), s3=Fraction(47, 8))",
    "FoldedMoments": "FoldedMoments(n=3, q=Fraction(1, 2), i1=Fraction(11, 7), i2=Fraction(3, 1), "
    "i3=Fraction(47, 7), var=Fraction(26, 49), i2_prime=Fraction(2, 1))",
    "GoldenPower": "GoldenPower(m=3, a=8, b=-3)",
    "QuadLawCoeffs": "QuadLawCoeffs(a=Fraction(1, 1), b=Fraction(-2, 1), n=12, "
    "m_rho_sq=Fraction(2, 1))",
    "QuadLawFit": "QuadLawFit(a=Fraction(3362, 2409), b=Fraction(-2491, 438), n=3, "
    "residuals=(Fraction(19997, 50589),))",
    "StationarityReport": "StationarityReport(n=3, f_prime_at_star=Q5(Fraction(5, 192), "
    "Fraction(-1, 24)), bracket=Q5(Fraction(0, 1), Fraction(-1, 7)), stationary=False, "
    "degenerate=False, sign_changes=0, sign_change_intervals=())",
    "CheckRecord": "CheckRecord(check_id='x.id', description='desc', status='pass', "
    "expected='1', actual='1', basis='direct')",
}


@pytest.mark.parametrize("name", sorted(_RECORD_REPRS))
def test_records_are_frozen_and_keep_their_repr(name):
    import copy
    import pickle

    rec, twin = _records()[name], _records()[name]
    assert repr(rec) == _RECORD_REPRS[name]
    assert rec is not twin and rec == twin and hash(rec) == hash(twin)
    first_field = repr(rec).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(rec, first_field, None)
    assert repr(rec) == _RECORD_REPRS[name]
    assert copy.deepcopy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec


def test_report_document_stays_mutable():
    from goldenschur.report import ReportDocument

    doc = ReportDocument("lockin", 7)
    doc.add("x.id", "desc", None, "1", "2", "derived")
    assert repr(doc) == (
        "ReportDocument(suite='lockin', seed=7, records=[CheckRecord(check_id='x.id', "
        "description='desc', status='info', expected='1', actual='2', basis='derived')])"
    )
    twin = ReportDocument("lockin", 7, list(doc.records))
    assert doc == twin
    twin.seed = 8
    assert doc != twin
    with pytest.raises(TypeError):
        hash(doc)


@pytest.mark.parametrize(
    "status, basis, message",
    [("ok", "direct", "bad status 'ok'"), ("pass", "oracle", "bad basis tag 'oracle'")],
)
def test_check_record_rejects_a_bad_status_or_basis(status, basis, message):
    from goldenschur.report import CheckRecord

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CheckRecord("x.id", "desc", status, "1", "1", basis)


def test_check_record_refuses_field_deletion():
    from goldenschur.report import CheckRecord

    rec = CheckRecord("x.id", "desc", "pass", "1", "1", "direct")
    with pytest.raises(AttributeError, match="^cannot delete field 'status'$"):
        del rec.status
    assert rec.status == "pass"


def test_report_document_rejects_an_unknown_format():
    from goldenschur.report import ReportDocument

    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        ReportDocument("lockin", 7).render("xml")


def test_run_suite_rejects_an_unknown_suite():
    from goldenschur.reference import SUITES
    from goldenschur.verify import run_suite

    message = f"unknown suite 'nope'; choose from {', '.join(SUITES)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite("nope")


_MOVED_TO_ORACLE = {
    "folded": ("sums_bruteforce", "moments_from_sums", "theta_derivatives_fd"),
    "golden": ("sums_at_qstar", "fibonacci"),
    "lockin": ("f_red_prime_direct_q",),
    "schur": (
        "assemble_hessian", "BlockHessian", "block_hessian", "schur_complement",
        "dense_curvature", "variational_expression", "VariationalReport", "variational_check",
        "ConvexityGapReport", "matrix_convexity_check", "shift_matrix", "reversal_matrix",
        "LOEWNER_TOL",
    ),
}


def test_package_namespace_resolves_lazily():
    assert len(goldenschur.__all__) == 40
    assert "moments_at_qstar" not in goldenschur.__all__
    moved = [name for names in _MOVED_TO_ORACLE.values() for name in names]
    for removed in ("LambdaValue", "reduce_power", "f_red", "f_red_prime", "f_red_prime_direct",
                    "q_class_functional", "theta_derivatives", "uniqueness_scan", *moved):
        assert removed not in goldenschur.__all__
        assert not hasattr(goldenschur, removed)
    oracle = importlib.import_module("goldenschur.oracle")
    for module, names in _MOVED_TO_ORACLE.items():
        old = importlib.import_module(f"goldenschur.{module}")
        for name in names:
            assert name not in old.__all__ and not hasattr(old, name)
            assert name in oracle.__all__ and hasattr(oracle, name)
    assert not hasattr(importlib.import_module("goldenschur.schur").SplitGeometry, "band_basis")
    assert set(goldenschur.__all__) <= set(dir(goldenschur))
    for name in goldenschur.__all__:
        assert getattr(goldenschur, name) is not None
    assert goldenschur.quadratic_law_fit is goldenschur.lockin.quadratic_law_fit
    assert goldenschur.schur_curvature is goldenschur.schur.schur_curvature
    assert goldenschur.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        goldenschur.no_such_name


@pytest.mark.parametrize(
    "argv", [["lambda", "--N", "12000"], ["moments", "--N", "1500", "--q", "997/1000"]]
)
def test_exact_values_print_beyond_int_digit_limit(capsys, argv):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, out, err = run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 0, err
    assert max(len(run) for run in re.findall(r"\d+", out)) > 5000


def test_int_digit_limit_restored_after_error(capsys):
    before = sys.get_int_max_str_digits()
    code, _, _ = run_cli(capsys, "lambda", "--N", "1")
    assert code == 2
    assert sys.get_int_max_str_digits() == before


def _exact_large_digests():
    """(arguments, sha256 of stdout) rows of ``tests/fixtures/exact-large.sha256``."""
    path = FIXTURES / "exact-large.sha256"
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            digest, args = line.split(maxsplit=1)
            rows.append(pytest.param(args, digest, id=args))
    return rows


@pytest.mark.parametrize("args,digest", _exact_large_digests())
def test_exact_large_output_matches_fixture(capsys, args, digest):
    # values of thousands of digits, printed by the divide-and-conquer digit
    # routine, and their certified decimals; the digests were taken from the
    # str()-based renderer and from decimals certified by an isqrt each.  The
    # stationarity rows pin the decision on coefficients read exactly.
    code, out, err = run_cli(capsys, *args.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_console_script():
    exe = shutil.which("goldenschur")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "lambda", "--N", "12"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "5.458" in proc.stdout


def test_no_arguments_shows_usage(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_main_builds_the_parser_once(capsys, monkeypatch):
    from goldenschur import cli

    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main rebuilt the parser"))
    for _ in range(2):
        code, out, _ = run_cli(capsys, "lambda", "--N", "12")
        assert (code, out) == (0, LAMBDA_12_OUTPUT["table"])
