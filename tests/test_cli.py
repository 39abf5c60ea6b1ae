"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goldenschur
from goldenschur.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

#: The N = 6 family with u = cos(2πk/6), as CI scans it.
FAMILY_DOC = json.loads((FIXTURES / "ci-family.json").read_text())


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


@pytest.mark.parametrize("seed", [94, 430])
def test_verify_all_passes_where_a_random_direction_gives_a_concave_kappa(capsys, seed):
    # at these seeds a drawn family with its random collective direction has
    # a concave κ; the convexity record scans the family with a cosine-mode
    # direction, for which claim (i) is proved
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", str(seed))
    assert code == 0
    assert out.splitlines()[-1] == "33 passed, 0 failed, 4 informational"


def test_closed_vs_brute_fails_when_one_closed_sum_is_off(monkeypatch):
    # S₀ + 1/b^N at one draw: the cross-multiplied comparison finds it
    from goldenschur import verify

    right, calls = verify.sums_closed, []

    def off(n, q):
        s = right(n, q)
        calls.append(n)
        if len(calls) == 100:
            return s._replace(s0=s.s0 + Fraction(1, q.denominator**n))
        return s

    monkeypatch.setattr(verify, "sums_closed", off)
    records = {r.check_id: r for r in verify.run_suite("appendix-b", 3).records}
    assert len(calls) == 192 + 1  # the draws, and S at q⋆
    closed = records["b.closed-vs-brute"]
    assert (closed.status, closed.actual) == ("fail", "1 mismatches")
    assert all(r.status == "pass" for k, r in records.items() if k != "b.closed-vs-brute")


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
    assert err == "error: seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("seed", [-7, True, False, 1.0, 7.5], ids=repr)
@pytest.mark.parametrize(
    "suite",
    ["appendix-b", "appendix-c", "appendix-d", "appendix-h", "schur-properties", "lockin", "all"],
)
def test_run_suite_rejects_a_seed_that_is_not_a_non_negative_int(suite, seed):
    # random.Random(-7) would replay the draws of seed 7, and take a float
    from goldenschur.verify import run_suite

    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite(suite, seed)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_verify_reports_a_failed_check(capsys, monkeypatch, fmt):
    # a wrong Λ(12) fails c.lambda-12 alone, and the run exits 1 in every format
    from goldenschur import verify
    from goldenschur.golden import lambda_n

    monkeypatch.setattr(verify, "lambda_n", lambda n: lambda_n(n) + 1)
    code, out, _ = run_cli(capsys, "verify", "--suite", "appendix-c", "--format", fmt)
    assert code == 1
    if fmt == "table":
        lines = out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("[FAIL] c.lambda-12 "))
        assert [line.strip() for line in lines[at + 1 : at + 3]] == [
            "expected: 13 - 2425/719·√5 = 2072/719 + 4850/719·q⋆ ≈ 5.4583242762",
            "actual:   14 - 2425/719·√5 = 2791/719 + 4850/719·q⋆ ≈ 6.4583242762",
        ]
        assert lines[-1] == "3 passed, 1 failed, 0 informational"
    elif fmt == "json":
        summary = json.loads(out)["summary"]
        assert (summary["fail"], summary["ok"]) == (1, False)
    else:
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(r[0], r[1]) for r in rows if r[1] != "pass"] == [("c.lambda-12", "fail")]


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
    assert err == f"error: N must be an integer >= 1, got {n}\n"


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
    assert (code, out, err) == (2, "", "error: digits must be an integer >= 0, got -1\n")


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
    rows = list(csv.reader(io.StringIO(out)))
    assert out.endswith("\n")
    assert rows[:-1] == [["key", "value"]] + [[k, str(v)] for k, v in STATIONARITY_B1.items()]
    key, value = rows[-1]
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
    # every value is exact: the golden point reads its values off their
    # forms, and the decision needs no grid, so the closed forms that floats
    # run are never called
    import goldenschur.floatlaw as floatlaw

    calls = {"exact": 0, "float": 0}
    original = floatlaw._closed_sums

    def counted(n, q):
        calls["float" if isinstance(q, float) else "exact"] += 1
        return original(n, q)

    monkeypatch.setattr(floatlaw, "_closed_sums", counted)
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
        'residuals,"[""0""]"\n'
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
    if fmt == "csv":
        rows = dict(csv.reader(io.StringIO(out)))
        assert json.loads(rows["residuals"]) == ["0"]


def test_payload_csv_rows_have_two_fields(capsys, tmp_path):
    # a list value is one json field, quoted as csv quotes a comma: the
    # interval of stationarity, and the two residuals of four fit samples
    path = write_round_trip_points(tmp_path)
    path.write_text(path.read_text() + "1/4,9/10\n")
    for argv in (
        ("stationarity", "--B", "-1"),
        ("fit-ab", "--points", str(path), "--N", "12"),
    ):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 2 for row in rows), rows
        doc = json.loads(run_cli(capsys, *argv, "--format", "json")[1])
        lists = {key: value for key, value in doc.items() if isinstance(value, list)}
        assert lists and {key: json.loads(value) for key, value in rows if key in lists} == lists


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


@pytest.mark.parametrize("fit", [[], ["--fit-law"]], ids=["no-fit", "fit-law"])
@pytest.mark.parametrize(
    "fixture", ["ci-family.json", "concave-n4-s-minus1.json", "concave-n4-s-plus1.json"]
)
def test_schur_json_is_what_json_dumps_writes(capsys, fixture, fit):
    # the curve rows come from one template: the document must be the bytes
    # json.dumps(doc, indent=2, sort_keys=True) writes for it
    argv = ["schur", str(FIXTURES / fixture), "-2.0", "-0.1", "41", "--format", "json", *fit]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1) and err == ""
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert len(json.loads(out)["curve"]) == 41


@pytest.mark.parametrize(
    "grid, q_end",
    [
        # the largest finite q of a grid is e^709 ≈ 8.2e307
        (["0", "709", "3"], math.exp(709)),
        # q = e^theta underflows to 0.0 at every point of the grid
        (["-800", "-746", "3"], 0.0),
        # e^710 is past the largest float, so q is inf (json's Infinity), while
        # κ is finite up to theta = 710.25 on this family
        (["0", "710", "3"], math.inf),
    ],
)
def test_schur_json_at_the_ends_of_q(capsys, grid, q_end):
    family = str(FIXTURES / "ci-family.json")
    code, out, err = run_cli(capsys, "schur", family, "--format", "json", "--", *grid)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert json.loads(out)["curve"][-1]["q"] == q_end


@pytest.mark.parametrize("fmt, sep", [("table", None), ("csv", ",")])
def test_schur_prints_q_past_the_float_range_as_inf(capsys, fmt, sep):
    # q = e^710 overflows a float and prints as inf; κ is finite, so the
    # command exits 0
    family = str(FIXTURES / "ci-family.json")
    code, out, err = run_cli(capsys, "schur", family, "0", "710", "3", "--format", fmt)
    assert (code, err) == (0, "")
    row = next(line for line in out.splitlines() if line.lstrip().startswith("710"))
    theta, q, kappa = row.split(sep)
    assert (float(theta), q.strip(), math.isfinite(float(kappa))) == (710.0, "inf", True)


@settings(max_examples=500)
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738085072014e-308)
@example(1.7976931348623157e308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(-math.nan)
def test_json_float_writes_what_json_writes(x):
    from goldenschur.cli import _json_float

    assert _json_float(x) == json.dumps(x)


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
    # κ ≈ e^{749} overflows a float at the middle point of the grid (−2, 749,
    # 1500), the first that fails; numpy must not turn it into a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "schur", family_file, "-2", "1500", "3")
    assert (code, out, err) == (1, "", "computation failed: κ overflows a float at theta=749\n")
    assert caught == []


def test_schur_hessian_overflow_is_a_computation_failure(capsys, family_file):
    # ‖H‖_F overflows a float at θ = −800, but κ ≈ 2.2e243 does not; κ first
    # overflows at θ = 800, the last point (ln κ ≈ 799.5): a failed
    # computation, not a singular block (exit 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "schur", family_file, "--", "-800", "800", "11")
    assert (code, out, err) == (1, "", "computation failed: κ overflows a float at theta=800\n")
    assert caught == []


def test_schur_table_rows_stay_inside_their_columns(capsys, family_file):
    # q and κ reach e^600 on this grid: a value whose fixed-point text is wider
    # than its column (12, 10, 14) is printed in exponent form at that width
    grid = ("schur", family_file, "-2", "600", "7")
    code, table, _ = run_cli(capsys, *grid)
    assert code == 0
    _, out, _ = run_cli(capsys, *grid, "--format", "json")
    curve = json.loads(out)["curve"]
    rows = table.splitlines()[2:-1]
    assert len(rows) == len(curve) == 7
    assert rows[0] == "   -2.000000    0.135335      7.78548451"
    assert rows[-1] == "  600.000000   3.77e+260   2.358138e+260"
    for row, point in zip(rows, curve):
        cells = (row[:12], row[14:24], row[26:])
        assert len(row) == 40 and row[12:14] == row[24:26] == "  "
        for cell, value in zip(cells, (point["theta"], point["q"], point["kappa"])):
            text = cell.strip()
            mantissa, _, exponent = text.partition("e")
            step = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
            assert abs(float(text) - value) <= step / 2 * (1 + 1e-12), (cell, value)


def test_schur_rejects_invalid_family(capsys, tmp_path):
    doc = dict(FAMILY_DOC)
    doc["C0"] = [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)]
    doc["C0"][0][0] = 9.0  # breaks circulant structure: circ(r) = 9·I, 8·√5 away
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "schur", str(path), "-2.0", "-0.1", "11")
    assert code == 2
    assert err == (
        "family validation failed:\n  - C0: not a symmetric circulant "
        "(||C - circ(r)||_F = 1.789e+01, r its symmetrised first row)\n"
    )


@pytest.mark.parametrize(
    "grid, message",
    [
        (["-2.0", "-0.1", "2"], "points must be an integer >= 3, got 2"),
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
         'terms[1].C: expected 6 rows of 6 numbers or {"circulant": [6 numbers]}'),
        (_set_term(1, "C", [1.0] * 35),
         'terms[1].C: expected 6 rows of 6 numbers or {"circulant": [6 numbers]}'),
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
    # lockin is loaded only by the subcommand that computes with it; fit-ab
    # fits through floatlaw
    lockin = argv[:1] == ["stationarity"]
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
        doc["C0"][0][0] = 9.0  # breaks circulant structure: circ(r) = 9·I, 8·√5 away
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
    doc["C0"][0][0] = 9.0  # breaks circulant structure: circ(r) = 9·I, 8·√5 away
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    return str(path)


_LOADED_BY_SCHUR = """
import contextlib, io, sys
before = set(sys.modules)
from goldenschur.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
heavy = {"numpy", "scipy", "dataclasses", "fractions", "decimal", "goldenschur.report"}
exact = {f"goldenschur.{m}" for m in ("lockin", "folded", "golden", "qfield")}
print(code, sorted((heavy | exact) & (set(sys.modules) - before)))
"""


@pytest.mark.parametrize("fit", [False, True], ids=["no-fit", "fit-law"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_schur_loads_no_numpy(family_file, fmt, fit):
    # the spectral route runs on Python floats, and the fit on the float lane
    # of floatlaw: no exact layer, fractions nor decimal
    argv = ["schur", family_file, "-2.0", "-0.1", "11", "--format", fmt, *(["--fit-law"] * fit)]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_SCHUR, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


@pytest.mark.parametrize("theta_max", ["0.5", "0", "0.0"])
def test_schur_fit_law_refuses_a_grid_past_q_1_before_scanning(capsys, monkeypatch, theta_max):
    # the folded law exists only for 0 < q < 1: a grid that reaches θ ≥ 0 is
    # refused before the family is read or scanned, naming the option
    from goldenschur import schur

    for name in ("load_family", "kappa_convexity_scan"):
        monkeypatch.setattr(schur, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    family = str(FIXTURES / "ci-family.json")
    code, out, err = run_cli(capsys, "schur", family, "-2", theta_max, "5", "--fit-law")
    assert (code, out) == (2, "")
    assert err == (
        "error: --fit-law needs theta_max < 0, so that every q = e^theta of the grid "
        f"lies in 0 < q < 1; got theta_max = {float(theta_max)}\n"
    )
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "schur", family, "-2", theta_max, "5")  # no fit: scanned
    assert code in (0, 1) and out


@pytest.mark.parametrize("theta_min", ["-800", "-745.14", "-inf"])
def test_schur_fit_law_refuses_a_grid_where_q_underflows_before_scanning(
    capsys, monkeypatch, theta_min
):
    # e^θ is 0.0 below about −745.13, where the folded law does not exist: the
    # grid is refused before the family is read or scanned, naming the option
    from goldenschur import schur

    for name in ("load_family", "kappa_convexity_scan"):
        monkeypatch.setattr(schur, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    family = str(FIXTURES / "ci-family.json")
    code, out, err = run_cli(capsys, "schur", family, "--fit-law", "--", theta_min, "-1", "5")
    assert (code, out) == (2, "")
    assert err == (
        "error: --fit-law needs q = e^theta_min > 0, but it underflows to 0.0 (theta_min "
        f"below about -745.13); got theta_min = {float(theta_min)}\n"
    )
    monkeypatch.undo()
    if math.isfinite(float(theta_min)):
        code, out, _ = run_cli(capsys, "schur", family, "--", theta_min, "-1", "5")  # no fit: scanned
        assert code in (0, 1) and out


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
        ["{family}", "--", "-800", "800", "11"],  # κ overflows a float at θ = 800, exit 1
    ],
)
def test_schur_runs_without_numpy(capsys, tmp_path, family_file, argv):
    argv = ["schur", *(a.format(family=family_file, invalid=_invalid_family(tmp_path)) for a in argv)]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


@pytest.mark.parametrize("suite", ["appendix-b", "appendix-c", "appendix-d", "appendix-h", "lockin"])
def test_exact_verify_suites_run_without_numpy(capsys, suite):
    # only the suite that builds dense matrices imports numpy; appendix-b and
    # lockin draw their seeded integers from random.Random
    argv = ["verify", "--suite", suite, "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


@pytest.mark.parametrize("suite", ["schur-properties", "all"])
def test_dense_verify_suites_run_without_numpy(capsys, suite):
    # the dense oracles run on lists: every record passes or informs, and the
    # bytes are those of the same command with numpy importable
    argv = ["verify", "--suite", suite, "--seed", "7", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    statuses = [c["status"] for c in json.loads(proc.stdout)["checks"]]
    assert set(statuses) == {"pass", "info"}
    assert len(statuses) == (37 if suite == "all" else 13)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


def test_verify_all_loads_no_numpy():
    # numpy is importable here, and verify does not import it
    code = (
        "import contextlib, io, sys\n"
        "from goldenschur.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--suite', 'all'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


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
    # nor does building the fixture family and scanning it
    code = (
        "import sys\n"
        "from goldenschur.schur import kappa_convexity_scan, load_family\n"
        "scan = kappa_convexity_scan(load_family(sys.argv[1]), -2.0, -0.1, 41)\n"
        "print(scan.convex_ok, [m for m in ('numpy', 'dataclasses') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(FIXTURES / "ci-family.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"


def test_verify_loads_no_dataclasses():
    # the oracle records are NamedTuples, like every other record
    code = (
        "import contextlib, io, sys\n"
        "from goldenschur.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--suite', 'all'])\n"
        "print(code, 'dataclasses' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


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
    from goldenschur.floatlaw import quadratic_law_fit
    from goldenschur.lockin import QuadLawCoeffs, stationarity_check
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


@pytest.mark.parametrize(
    "name, bad_field, message",
    [
        ("QuadLawCoeffs", {"a": math.nan}, "coefficient A must be finite, got nan"),
        ("CheckRecord", {"basis": "oracle"}, "bad basis tag 'oracle'"),
    ],
)
def test_checked_records_check_their_fields_on_every_rebuild(name, bad_field, message):
    import copy
    import pickle

    rec = _records()[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rec._replace(**bad_field)
    # a record that skipped its checks, rebuilt by copy or pickle
    bad = tuple.__new__(type(rec), (bad_field.get(f, v) for f, v in zip(rec._fields, rec)))
    rebuilds = [copy.copy, copy.deepcopy] + [
        lambda r, p=p: pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for rebuild in rebuilds:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rebuild(bad)
        assert rebuild(rec) == rec and type(rebuild(rec)) is type(rec)
    assert isinstance(rec, tuple) and rec == tuple(rec) and hash(rec) == hash(tuple(rec))


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
    with pytest.raises(AttributeError):  # the message is the Python version's own
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
        "LOEWNER_TOL", "circulant", "random_symmetric_psd_circulant", "random_family",
        "StrictWitnessReport", "strict_convexity_witness", "WITNESS_TOL",
    ),
}


def test_package_namespace_resolves_lazily():
    assert len(goldenschur.__all__) == 35
    assert len(importlib.import_module("goldenschur.schur").__all__) == 11
    assert "moments_at_qstar" not in goldenschur.__all__
    oracle = importlib.import_module("goldenschur.oracle")
    assert len(oracle.__all__) == 29
    moved = [name for names in _MOVED_TO_ORACLE.values() for name in names]
    for removed in ("LambdaValue", "reduce_power", "f_red", "f_red_prime", "f_red_prime_direct",
                    "q_class_functional", "theta_derivatives", "uniqueness_scan", *moved):
        assert removed not in goldenschur.__all__
        assert not hasattr(goldenschur, removed)
    for module in ("oracle", "schur", "verify"):
        assert not hasattr(importlib.import_module(f"goldenschur.{module}"),
                           "q_class_functional_from_weights")
    for module, names in _MOVED_TO_ORACLE.items():
        old = importlib.import_module(f"goldenschur.{module}")
        for name in names:
            assert name not in old.__all__ and not hasattr(old, name)
            assert name in oracle.__all__ and hasattr(oracle, name)
    assert not hasattr(importlib.import_module("goldenschur.schur").SplitGeometry, "band_basis")
    assert set(goldenschur.__all__) <= set(dir(goldenschur))
    for name in goldenschur.__all__:
        assert getattr(goldenschur, name) is not None
    assert goldenschur.quadratic_law_fit is goldenschur.floatlaw.quadratic_law_fit
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


def _digests(name):
    """(arguments or demo path, sha256 of stdout) rows of ``tests/fixtures/<name>``."""
    rows = []
    for line in (FIXTURES / name).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            digest, args = line.split(maxsplit=1)
            rows.append(pytest.param(args, digest, id=args))
    return rows


@pytest.mark.parametrize(
    "args,digest", _digests("exact-large.sha256") + _digests("verify-exact.sha256")
)
def test_exact_large_output_matches_fixture(capsys, args, digest):
    # values of thousands of digits, printed by str() and by the F_N/L_N digit
    # route of the golden point, and their certified decimals; the digests
    # were taken from the str()-based renderer and from decimals certified by
    # an isqrt each.  The stationarity rows pin the decision on coefficients
    # read exactly, and the verify rows the suites that read the golden-point
    # moments and Λ(N), at three seeds.
    code, out, err = run_cli(capsys, *args.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("demo,digest", _digests("exact-demos.sha256"))
def test_exact_demo_output_matches_fixture(demo, digest):
    root = FIXTURES.parent.parent
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", demo],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_console_script():
    exe = shutil.which("goldenschur")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "lambda", "--N", "12"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "5.458" in proc.stdout


def _script_target() -> str:
    """The ``module:function`` of the ``goldenschur`` script in ``pyproject.toml``
    (read by hand: Python 3.10 has no ``tomllib``)."""
    text = (FIXTURES.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return re.search(r'^goldenschur\s*=\s*"([\w.]+:\w+)"', section.group(1), re.M).group(1)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["lambda", "--N", "12"], 0),
        (["stationarity", "--B=0"], 1),
        (["moments", "--N", "0", "--q", "1/2"], 2),
        ([], 2),
    ],
    ids=["lambda", "stationarity", "moments", "no-arguments"],
)
def test_every_entry_point_prints_the_same_bytes_and_code(argv, code):
    # the console script as pip writes it, and both module runs
    module, function = _script_target().split(":")
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    runs = [
        subprocess.run(
            [sys.executable, *entry, *argv],
            cwd=FIXTURES.parent.parent, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, timeout=120,
        )
        for entry in (["-c", script], ["-m", "goldenschur"], ["-m", "goldenschur.cli"])
    ]
    got = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert got[0][0] == code, got[0][2].decode()
    assert got[0][1] or got[0][2]
    assert got[1:] == [got[0]] * 2


def test_main_leaves_the_collector_alone(capsys):
    import gc

    before = gc.get_freeze_count(), gc.isenabled()
    for argv in (["lambda", "--N", "12"], ["stationarity", "--B=0"], ["verify", "--suite", "lockin"]):
        run_cli(capsys, *argv)
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("outcome", [0, 1, 2, SystemExit(2), RuntimeError("boom")])
def test_run_freezes_the_heap_before_it_exits(monkeypatch, outcome):
    from goldenschur import cli

    events = []

    def fake_main():
        events.append("main")
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def fake_exit(code):
        events.append(("exit", code))
        raise SystemExit(code)

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli.sys, "exit", fake_exit)
    with pytest.raises(type(outcome) if isinstance(outcome, BaseException) else SystemExit) as info:
        cli.run()
    if isinstance(outcome, BaseException):
        assert info.value is outcome
        assert events == ["main", "freeze"]
    else:
        assert info.value.code == outcome
        assert events == ["main", "freeze", ("exit", outcome)]


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
