"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys
import warnings

import pytest

import goldenschur
from goldenschur.cli import main

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


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "appendix-z"])


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


def test_stationarity_synthesized(capsys):
    code, out, _ = run_cli(capsys, "stationarity", "--B", "-1")
    assert code == 0
    assert "15/2 - 2425/1438·√5" in out
    assert "1 sign change(s)" in out


def test_stationarity_reports_interval_bracketing_qstar(capsys):
    code, out, _ = run_cli(capsys, "stationarity", "--B=-1/2")
    assert code == 0
    assert "0.381" in out or "0.382" in out


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
STATIONARITY_B1_INTERVALS = [[0.38133791614149487, 0.3832138924990984]]


def assert_intervals_close(got, want):
    assert len(got) == len(want)
    for (lo, hi), (want_lo, want_hi) in zip(got, want):
        assert math.isclose(lo, want_lo, rel_tol=1e-12)
        assert math.isclose(hi, want_hi, rel_tol=1e-12)


def test_stationarity_csv_pinned(capsys):
    code, out, err = run_cli(capsys, "stationarity", "--B", "-1", "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert out.endswith("\n")
    assert lines[:-1] == ["key,value"] + [f"{k},{v}" for k, v in STATIONARITY_B1.items()]
    key, _, value = lines[-1].partition(",")
    assert key == "sign_change_intervals_q"
    assert_intervals_close(json.loads(value), STATIONARITY_B1_INTERVALS)


def test_stationarity_json_pinned(capsys):
    code, out, err = run_cli(capsys, "stationarity", "--B", "-1", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "\\u221a5" in out  # ASCII-escaped, as json.dumps writes by default
    assert_intervals_close(doc.pop("sign_change_intervals_q"), STATIONARITY_B1_INTERVALS)
    assert doc == STATIONARITY_B1


def test_stationarity_rejects_bad_b(capsys):
    code, _, err = run_cli(capsys, "stationarity", "--B", "nope")
    assert code == 2


@pytest.mark.parametrize("m_rho_sq", ["0", "-2"])
def test_stationarity_rejects_nonpositive_m_rho_sq(capsys, m_rho_sq):
    code, out, err = run_cli(capsys, "stationarity", "--B", "-1", "--m-rho-sq", m_rho_sq)
    assert (code, out) == (2, "")
    assert err == f"error: m_rho_sq must be positive, got {m_rho_sq}\n"


def test_stationarity_evaluates_each_point_once(capsys, monkeypatch):
    # Λ for the synthesis, Λ for the printed value, and the golden-point check
    # are the exact evaluations; the 601-point scan evaluates each point once
    import goldenschur.folded as folded

    calls = {"exact": 0, "float": 0}
    original = folded.sums_closed

    def counted(n, q):
        calls["float" if isinstance(q, float) else "exact"] += 1
        return original(n, q)

    monkeypatch.setattr(folded, "sums_closed", counted)
    code, _, err = run_cli(capsys, "stationarity", "--B", "-1")
    assert (code, err) == (0, "")
    assert calls["exact"] <= 3
    assert calls["float"] == 601


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
    assert err == f"error: {option}: {text!r} is not a finite number\n"


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
        ("q,kappa\n1/2,nan\n1/3,5/11\n", "kappa: 'nan' is not a finite number"),
        ("nan,3/7\n1/2,3/7\n1/3,5/11\n", "q: 'nan' is not a finite number"),
        ("q,kappa\nq,kappa\n1/3,5/11\n", "q: cannot parse 'q' as a rational or float"),
        ("1/2,3/7\nq,kappa\n1/3,5/11\n", "q: cannot parse 'q' as a rational or float"),
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


#: ``schur <FAMILY_DOC> -2.0 -0.5 4 --fit-law --format json`` stdout, parsed.
SCHUR_JSON_PINNED = {
    "N": 6,
    "convexity": {
        "convex_ok": True,
        "min_second_difference": 0.4013569320576291,
        "violations": [],
    },
    "curve": [
        {"kappa": 7.785484506434311, "q": 0.1353352832366127, "theta": -2.0},
        {"kappa": 6.193726637429618, "q": 0.22313016014842982, "theta": -1.5},
        {"kappa": 5.123834623504057, "q": 0.36787944117144233, "theta": -1.0},
        {"kappa": 4.4552995416361245, "q": 0.6065306597126334, "theta": -0.5},
    ],
    "fit": {
        "A": 9.106848407411844,
        "B": -24.306361849873248,
        "max_abs_residual": 6.25976411843771,
    },
}


def assert_doc_close(got, want):
    """Same keys, lengths and types; floats equal to 1e-12 relative."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            assert_doc_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_doc_close(g, w)
    else:
        assert got == want


def test_schur_json_pinned(capsys, family_file):
    code, out, err = run_cli(
        capsys, "schur", family_file, "-2.0", "-0.5", "4", "--fit-law", "--format", "json"
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert_doc_close(doc, SCHUR_JSON_PINNED)


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


def test_schur_circulant_family_needs_no_dense_linear_algebra(capsys, family_file, monkeypatch):
    # a circulant-encoded family is validated and scanned from the DFT of its
    # rows: no eigendecomposition, and no SVD for the band basis
    import goldenschur.schur as schur

    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on the spectral route")

    monkeypatch.setattr(schur.np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(schur.np.linalg, "svd", refuse)
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


_LOADED_HEAVY = """
import contextlib, io, sys
from goldenschur.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, sorted({"numpy", "scipy"} & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--N", "12"],
        ["moments", "--N", "12", "--q", "phi^-2"],
        ["golden-table", "--max-m", "12"],
        ["stationarity", "--B", "-1"],
        ["fit-ab", "--points", "{points}", "--N", "12"],
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
    assert proc.stdout.split() == ["0", "[]"]


def test_schur_module_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, goldenschur.schur; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_namespace_resolves_lazily():
    assert len(goldenschur.__all__) == 63
    assert "moments_at_qstar" not in goldenschur.__all__
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
