"""Seeded inputs, invocation lists and independent oracles for the workloads.

Every workload is a fixed list of CLI invocations built from one seed.  Each
invocation carries a check that judges the program's exit code, stdout and
stderr against reference values computed here, without importing the code
under test: mpmath decimals and exact-value evaluation for the exact lane,
integer Fibonacci numbers for the reduction table, the benchmark's own
Fraction arithmetic for the quadratic law, and its own projected-matrix
formula for the Schur curvature.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import mpmath
import numpy as np

WORKLOADS = ("exact", "matrix", "verify")

#: A check returns None when the output is right, else the reason it is not.
Check = Callable[[int, str, str], Optional[str]]


@contextlib.contextmanager
def unlimited_int_digits():
    """Lifts the int↔str digit limit while an oracle parses output.

    Exact outputs at N = 10⁴ carry integers of about 4200 digits.  The limit
    is restored afterwards, so the program under test, which runs warm in the
    same process, keeps the interpreter's default limit."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Check


# ---------------------------------------------------------------------------
# exact-lane references (mpmath)

_WORK_DPS = 60


def _sums_mp(n: int, q: mpmath.mpf) -> list[mpmath.mpf]:
    """S_k = Σ_{r=1}^N r^k q^r, k = 0..3, by direct summation at 60 digits.

    Summation stops once the remaining terms fall below the working precision
    (the terms decrease monotonically past r = 3/|ln q|)."""
    s = [mpmath.mpf(0)] * 4
    p = mpmath.mpf(1)
    r_mono = 3 / -mpmath.log(q)
    tiny = mpmath.mpf(10) ** (-_WORK_DPS - 10)
    for r in range(1, n + 1):
        p *= q
        w = p
        for k in range(4):
            s[k] += w
            w *= r
        if r > r_mono and p * r**3 < tiny * s[0] * (1 - q) ** 4:
            break
    return s


def _mp(q: Optional[Fraction]) -> mpmath.mpf:
    """q at the working precision; None stands for q⋆ = (3 − √5)/2."""
    if q is None:
        return (3 - mpmath.sqrt(5)) / 2
    return mpmath.mpf(q.numerator) / q.denominator


def moment_refs(n: int, q: Optional[Fraction]) -> dict[str, mpmath.mpf]:
    """Reference values of every row the ``moments`` command prints (q = None is q⋆)."""
    with mpmath.workdps(_WORK_DPS):
        s0, s1, s2, s3 = _sums_mp(n, _mp(q))
        i1, i2, i3 = s1 / s0, s2 / s0, s3 / s0
        var = i2 - i1 * i1
        return {
            "S0": s0, "S1": s1, "S2": s2, "S3": s3,
            "I1": i1, "I2": i2, "I3": i3, "Var": var,
            "I1'": var, "I2'": i3 - i1 * i2,
        }


def lambda_ref(n: int) -> mpmath.mpf:
    with mpmath.workdps(_WORK_DPS):
        m = moment_refs(n, None)
        return m["I2'"] / m["I1'"]


def _decimal_ok(text: str, ref: mpmath.mpf, digits: int) -> bool:
    """True when ``text`` is ``ref`` rounded to ``digits`` places (ties either way)."""
    with mpmath.workdps(_WORK_DPS):
        return abs(mpmath.mpf(text) - ref) <= mpmath.mpf(10) ** (-digits) * (0.5 + 1e-9)


def _linear_parts(text: str) -> tuple[Fraction, Fraction, Optional[str]]:
    """(c0, c1, symbol) of ``c0 ± m·s``, ``m·s``, ``s`` or ``c0`` as the CLI prints
    them, with ``s`` one of √5 and q⋆."""
    sym = next((s for s in ("√5", "q⋆") if text.endswith(s)), None)
    if sym is None:
        return Fraction(text), Fraction(0), None
    head = text[: -len(sym)].removesuffix("·")
    c0, sign, mag = "0", "+", head
    for joiner in (" + ", " - "):
        if joiner in head:
            c0, mag = head.split(joiner)
            sign = joiner.strip()
    if mag in ("", "-"):
        mag += "1"
    c1 = Fraction(mag)
    return Fraction(c0), -c1 if sign == "-" else c1, sym


def _exact_ok(text: str, ref: mpmath.mpf) -> bool:
    """Every ``=``-separated exact form in ``text`` equals ``ref`` to 40 digits.

    The working precision covers the printed integers, so a + b·√5 with huge
    a and b cancels without loss."""
    for part in text.split(" = "):
        c0, c1, sym = _linear_parts(part)
        dps = 60 + max(len(str(abs(x.numerator))) + len(str(x.denominator)) for x in (c0, c1))
        with mpmath.workdps(dps):
            base = {None: 0, "√5": mpmath.sqrt(5), "q⋆": _mp(None)}[sym]
            value = mpmath.mpf(c0.numerator) / c0.denominator + (
                mpmath.mpf(c1.numerator) / c1.denominator * base
            )
            if abs(value - ref) > abs(ref) * mpmath.mpf(10) ** -40:
                return False
    return True


def check_moments(n: int, q: Optional[Fraction], digits: int = 12) -> Check:
    refs = moment_refs(n, q)

    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        rows = {}
        for line in out.splitlines()[1:]:
            name, _, rest = line.strip().partition(" = ")
            rows[name] = rest
        if set(rows) != set(refs):
            return f"rows {sorted(rows)} != {sorted(refs)}"
        for name, ref in refs.items():
            exact, _, dec = rows[name].rpartition(" ≈ ")
            if not _decimal_ok(dec, ref, digits):
                return f"{name}: decimal {dec} is not {mpmath.nstr(ref, digits + 5)} rounded"
            if not _exact_ok(exact, ref):
                return f"{name}: exact value {exact[:80]} does not equal the reference"
        return None

    return check


#: Λ(12) as printed in the paper, in the √5 basis.
PAPER_LAMBDA_12 = "13 - 2425/719·√5"


def check_lambda(n: int, digits: int = 10) -> Check:
    ref = lambda_ref(n)
    prefix = f"Λ({n}) = "

    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        line = out.strip()
        if not line.startswith(prefix) or " ≈ " not in line:
            return f"unexpected output {line[:80]!r}"
        exact, _, dec = line[len(prefix):].rpartition(" ≈ ")
        if n == 12 and not exact.startswith(PAPER_LAMBDA_12 + " = "):
            return f"Λ(12) = {exact!r}, the paper gives {PAPER_LAMBDA_12}"
        if not _decimal_ok(dec, ref, digits):
            return f"decimal {dec} is not {mpmath.nstr(ref, digits + 5)} rounded"
        if not _exact_ok(exact, ref):
            return "exact value does not equal the reference"
        return None

    return check


def _fibonacci_table(max_m: int) -> str:
    """``golden-table`` CSV from integer Fibonacci numbers: a_m = F_2m, b_m = −F_{2m−2}."""
    fib = [-1, 1]  # F_{-2}, F_{-1}
    while len(fib) < 2 * max_m + 3:
        fib.append(fib[-1] + fib[-2])
    rows = ["m,a,b"] + [f"{m},{fib[2 * m + 2]},{-fib[2 * m]}" for m in range(max_m + 1)]
    return "\n".join(rows) + "\n"


def check_golden_table(max_m: int) -> Check:
    expected = _fibonacci_table(max_m)

    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        return None if out == expected else "table differs from the Fibonacci reference"

    return check


def check_stationarity(b: Fraction, n: int = 12, m_rho_sq: int = 2) -> Check:
    lam = lambda_ref(n)
    with mpmath.workdps(_WORK_DPS):
        bm = _mp(b)
        a_ref = (mpmath.mpf(8) / m_rho_sq - bm * lam + 2 * bm) / 2

    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        doc = json.loads(out)
        if doc["stationary"] is not True or doc["sign_changes"] != 1:
            return f"stationary={doc['stationary']} sign_changes={doc['sign_changes']}"
        if doc["B"] != str(b):
            return f"B echoed as {doc['B']}"
        if n == 12 and not doc["lambda_exact"].startswith(PAPER_LAMBDA_12 + " = "):
            return f"lambda_exact {doc['lambda_exact']!r}"
        if not _decimal_ok(doc["lambda_decimal"], lam, 10):
            return f"lambda_decimal {doc['lambda_decimal']}"
        if not _decimal_ok(doc["A_decimal"], a_ref, 12):
            return f"A_decimal {doc['A_decimal']} is not {mpmath.nstr(a_ref, 17)} rounded"
        return None

    return check


def _fraction_moments(n: int, q: Fraction) -> tuple[Fraction, Fraction]:
    """(I₁², Var) at (N, q) by direct Fraction summation."""
    s = [Fraction(0)] * 4
    p = Fraction(1)
    for r in range(1, n + 1):
        p *= q
        for k in range(4):
            s[k] += r**k * p
    i1, i2 = s[1] / s[0], s[2] / s[0]
    return i1 * i1, i2 - i1 * i1


def write_fit_points(path: Path, rng: random.Random, n: int = 12) -> tuple[Fraction, Fraction]:
    """Write κ_i = A·I₁(q_i)² + B·Var(q_i) samples for seeded exact (A, B)."""
    pool = [Fraction(p, d) for d in range(2, 10) for p in range(1, d) if math.gcd(p, d) == 1]
    while True:
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
        qs = rng.sample(pool, 4)
        mv = [_fraction_moments(n, q) for q in qs]
        if mv[0][0] * mv[1][1] != mv[1][0] * mv[0][1]:
            break
    lines = ["q,kappa"] + [f"{q},{a * m + b * v}" for q, (m, v) in zip(qs, mv)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return a, b


def check_fit(a: Fraction, b: Fraction) -> Check:
    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        doc = json.loads(out)
        if doc["A"] != str(a) or doc["B"] != str(b):
            return f"fit (A, B) = ({doc['A']}, {doc['B']}), generated from ({a}, {b})"
        if any(r != "0" for r in doc["residuals"]) or doc["max_abs_residual"] != 0:
            return f"nonzero residuals {doc['residuals']}"
        return None

    return check


def _random_rational(rng: random.Random) -> Fraction:
    d = rng.randint(2, 19)
    p = rng.randint(1, d - 1)
    while math.gcd(p, d) != 1:
        p = rng.randint(1, d - 1)
    return Fraction(p, d)


def exact_workload(seed: int, workdir: Path) -> list[Invocation]:
    rng = random.Random(seed)
    # B = 0 has no crossing at all, so B is a nonzero rational.
    b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 10))
    q = _random_rational(rng)
    points = workdir / "points.csv"
    a_fit, b_fit = write_fit_points(points, rng)
    return [
        Invocation(("lambda", "--N", "12"), check_lambda(12)),
        Invocation(("moments", "--q", "phi^-2", "--N", "12"), check_moments(12, None)),
        Invocation(("golden-table", "--max-m", "12"), check_golden_table(12)),
        Invocation(("stationarity", f"--B={b}", "--format", "json"), check_stationarity(b)),
        Invocation(
            ("fit-ab", "--points", str(points), "--N", "12", "--format", "json"),
            check_fit(a_fit, b_fit),
        ),
        Invocation(("lambda", "--N", "10000"), check_lambda(10000)),
        Invocation(("moments", "--q", "phi^-2", "--N", "10000"), check_moments(10000, None)),
        Invocation(("moments", "--q", str(q), "--N", "1000"), check_moments(1000, q)),
        Invocation(("golden-table", "--max-m", "500"), check_golden_table(500)),
    ]


#: Message of Python's int→str digit limit, the known defect the probes show.
DIGIT_LIMIT_MESSAGE = "Exceeds the limit (4300 digits)"


def defect_probes() -> list[Invocation]:
    """Invocations whose exact output exceeds the int→str digit limit.

    The library computes both values; the CLI cannot print them.  Their checks
    accept only the correct output, so they fail while the defect stands."""
    return [
        Invocation(("lambda", "--N", "12000"), check_lambda(12000)),
        Invocation(
            ("moments", "--N", "1500", "--q", "997/1000"), check_moments(1500, Fraction(997, 1000))
        ),
    ]


# ---------------------------------------------------------------------------
# matrix lane: families, projected-matrix κ

THETA_MIN, THETA_MAX, POINTS = -2.0, -0.1, 101
_CONVEXITY_TOL = 1e-8  # the CLI's documented second-difference bound
_KAPPA_RTOL = 1e-9


def _circulant(g: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    return g[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def _symmetric_generator(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Generator row of a symmetric circulant whose DFT spectrum lies in [lo, hi]."""
    half = rng.uniform(lo, hi, n // 2 + 1)
    spectrum = np.concatenate([half, half[1 : (n + 1) // 2][::-1]])
    g = np.fft.ifft(spectrum).real
    return (g + np.roll(g[::-1], 1)) / 2  # g[k] == g[n−k] exactly


def _checked_circulant(g: np.ndarray, psd: bool) -> np.ndarray:
    c = _circulant(g)
    if not np.array_equal(c, c.T):
        raise RuntimeError("generated circulant is not symmetric")
    scale = max(1.0, float(np.linalg.norm(c)))
    low = float(np.linalg.eigvalsh(c)[0])
    if psd != (low > 1e-6 * scale):
        raise RuntimeError(f"generated circulant has min eigenvalue {low:.3e}")
    return c


@dataclass(frozen=True)
class Family:
    n: int
    u: np.ndarray  # raw collective direction as written
    c0: np.ndarray
    terms: tuple[tuple[float, np.ndarray], ...]
    generators: tuple[np.ndarray, ...]  # of C0 then each term


def make_family(rng: np.random.Generator, n: int, *, psd: bool = True) -> Family:
    gens = [_symmetric_generator(rng, n, 0.5, 1.5)]
    mats = [_checked_circulant(gens[0], True)]
    terms = []
    for k in range(2):
        s = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        g = _symmetric_generator(rng, n, 0.01, 1.0)
        if not psd and k == 0:
            g = g - 1.0  # subtracts the all-ones matrix: the k=0 eigenvalue drops by N, so the term is indefinite
        gens.append(g)
        mats.append(_checked_circulant(g, psd or k > 0))
        terms.append((s, mats[-1]))
    u = rng.standard_normal(n)
    return Family(n, u, mats[0], tuple(terms), tuple(gens))


def write_family(fam: Family, path: Path, encoding: str) -> None:
    def enc(g: np.ndarray, c: np.ndarray) -> object:
        if encoding == "circulant":
            return {"circulant": g.tolist()}
        return c.tolist()

    doc = {
        "N": fam.n,
        "m_rho_sq": 2.0,
        "u": fam.u.tolist(),
        "C0": enc(fam.generators[0], fam.c0),
        "terms": [
            {"s": s, "C": enc(g, c)} for (s, c), g in zip(fam.terms, fam.generators[1:])
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def kappa_curve(fam: Family, thetas: np.ndarray) -> np.ndarray:
    """κ(θ) = Tr(P_B (H − H u uᵀ H / uᵀHu) P_B) / (N − 2), P_B = I − 11ᵀ/N − uuᵀ."""
    n = fam.n
    v = fam.u - fam.u.mean()
    u = v / np.linalg.norm(v)
    ones = np.ones(n)
    out = []
    for t in thetas:
        h = fam.c0 + sum(math.exp(s * t) * c for s, c in fam.terms)
        hu = h @ u
        h_oo = u @ hu
        tr_band = np.trace(h) - ones @ h @ ones / n - h_oo
        # ‖P_B H u‖²: P_B removes the mean and the u-component of Hu
        pbhu = hu - hu.mean() - h_oo * u
        out.append((tr_band - pbhu @ pbhu / h_oo) / (n - 2))
    return np.array(out)


def _violations(kappas: np.ndarray) -> tuple[list[int], float]:
    """Interior indices failing the convexity bound, and the closest margin to it."""
    d2 = kappas[2:] - 2 * kappas[1:-1] + kappas[:-2]
    floor = -_CONVEXITY_TOL * np.maximum(1.0, np.abs(kappas[1:-1]))
    margin = float(np.min(np.abs(d2 - floor) / np.maximum(1.0, np.abs(kappas[1:-1]))))
    return [int(i + 1) for i in np.nonzero(d2 < floor)[0]], margin


def check_schur(kappas: np.ndarray, fmt: str, fit: bool) -> Check:
    violations, _ = _violations(kappas)
    thetas = np.linspace(THETA_MIN, THETA_MAX, POINTS)

    def check(code: int, out: str, err: str) -> Optional[str]:
        expected_code = 1 if violations else 0
        if code != expected_code:
            return f"exit {code}, expected {expected_code}: {err.strip()[-200:]}"
        if fmt == "json":
            doc = json.loads(out)
            got = np.array([[r["theta"], r["kappa"]] for r in doc["curve"]])
            convex_ok = doc["convexity"]["convex_ok"]
            fitted = "fit" in doc and all(math.isfinite(doc["fit"][k]) for k in ("A", "B"))
        else:
            lines = out.splitlines()
            rows = lines[1 : 1 + POINTS]
            got = np.array([[float(x) for x in row.split(",")[::2]] for row in rows])
            convex_ok = lines[1 + POINTS].startswith("# convex_ok=True ")
            fitted = any(line.startswith("# fit A=") for line in lines)
        if got.shape != (POINTS, 2):
            return f"curve has shape {got.shape}"
        if np.max(np.abs(got[:, 0] - thetas)) > 1e-10:
            return "θ grid differs"
        rel = np.max(np.abs(got[:, 1] - kappas) / np.maximum(1.0, np.abs(kappas)))
        if rel > _KAPPA_RTOL:
            return f"κ differs from the projected-matrix reference by {rel:.3e} relative"
        if convex_ok != (not violations):
            return f"convex_ok = {convex_ok}, expected {not violations}"
        if fitted != fit:
            return "quadratic-law fit missing" if fit else "unrequested quadratic-law fit"
        return None

    return check


def check_invalid_family(code: int, out: str, err: str) -> Optional[str]:
    if code != 2:
        return f"invalid family exited {code}, expected 2"
    if "family validation failed" not in err or "not PSD" not in err:
        return f"violation not listed: {err.strip()[:200]!r}"
    return None


#: (N, encoding, --fit-law, format) of the valid families, in pass order.
#: One N = 256 scan keeps a warm pass short enough for 40 of them in a run.
MATRIX_CASES = (
    (12, "circulant", True, "json"),
    (12, "dense", False, "csv"),
    (64, "circulant", True, "json"),
    (64, "dense", True, "csv"),
    (256, "circulant", True, "json"),
)


def matrix_workload(seed: int, workdir: Path) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    thetas = np.linspace(THETA_MIN, THETA_MAX, POINTS)
    grid = [str(THETA_MIN), str(THETA_MAX), str(POINTS)]
    invocations = []
    for n, encoding, fit, fmt in MATRIX_CASES:
        while True:
            fam = make_family(rng, n)
            kappas = kappa_curve(fam, thetas)
            # a second difference within 1e-10 of the bound is not decidable
            # from two independent float routes; draw again
            if _violations(kappas)[1] > 1e-10:
                break
        path = workdir / f"family-N{n}-{encoding}.json"
        write_family(fam, path, encoding)
        argv = ("schur", str(path), *grid, "--format", fmt) + (("--fit-law",) if fit else ())
        invocations.append(Invocation(argv, check_schur(kappas, fmt, fit)))
    bad = make_family(rng, 64, psd=False)
    path = workdir / "family-N64-invalid.json"
    write_family(bad, path, "circulant")
    invocations.append(Invocation(("schur", str(path), *grid, "--fit-law"), check_invalid_family))
    return invocations


# ---------------------------------------------------------------------------
# verify

#: Records ``verify --suite all`` emits (33 checks + 4 informational rows).
VERIFY_RECORDS = 37


def check_verify(seed: int, fmt: str) -> Check:
    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        if fmt == "json":
            doc = json.loads(out)
            statuses = [c["status"] for c in doc["checks"]]
            if doc["seed"] != seed:
                return f"seed echoed as {doc['seed']}"
        else:
            lines = out.splitlines()
            if lines[0] != f"suite: all  (seed {seed})":
                return f"header {lines[0]!r}"
            statuses = [ln[1:5].lower() for ln in lines if ln[:6] in ("[PASS]", "[FAIL]", "[INFO]")]
            n_pass, n_info = statuses.count("pass"), statuses.count("info")
            if lines[-1] != f"{n_pass} passed, 0 failed, {n_info} informational":
                return f"summary {lines[-1]!r}"
        if len(statuses) != VERIFY_RECORDS:
            return f"{len(statuses)} records, expected {VERIFY_RECORDS}"
        if "fail" in statuses or set(statuses) - {"pass", "info"}:
            return f"{statuses.count('fail')} failing records"
        return None

    return check


def verify_workload(seed: int, workdir: Path) -> list[Invocation]:
    args = ("verify", "--suite", "all", "--seed", str(seed), "--format")
    return [
        Invocation(args + ("json",), check_verify(seed, "json")),
        Invocation(args + ("table",), check_verify(seed, "table")),
    ]


BUILDERS = {"exact": exact_workload, "matrix": matrix_workload, "verify": verify_workload}
