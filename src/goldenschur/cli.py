"""Command-line front end.

Subcommands::

    verify        run a verification suite (exit 0 iff nothing failed)
    moments       exact/decimal power sums and moments at (N, q)
    schur         κ_Schur curve and property report for a family file
    stationarity  synthesize consistent coefficients and check the golden point
    fit-ab        identify quadratic-law coefficients from (q, κ) samples
    golden-table  the integer reduction table q⋆^m = a_m·q⋆ + b_m
    lambda        Λ(N) in both bases and decimal

Reports render as ``table``, ``csv`` or ``json``; all output is
deterministic for a fixed ``--seed``.

A process enters through :func:`run` (``python -m goldenschur``,
``python -m goldenschur.cli`` and the ``goldenschur`` script), which freezes
the heap before it exits; :func:`main` is for callers in a long-lived process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import math
import sys
from typing import TYPE_CHECKING, Iterator, NoReturn, Sequence

from .reference import SUITES

if TYPE_CHECKING:
    from fractions import Fraction

    from .qfield import Q5

# Each subcommand imports only the layers it computes with, and none imports
# numpy: ``verify`` and ``schur`` inside their subcommands, ``lockin`` inside
# ``stationarity``, the exact layers (``qfield``, ``folded``, ``golden``)
# inside the subcommands and helpers that compute or print exact values,
# ``fractions`` inside the helpers that parse rationals, and ``json`` only
# where json is rendered.
# ``schur --fit-law`` fits on floats through ``floatlaw``, which loads none of
# them.

__all__ = ["main", "run", "build_parser"]

_GOLDEN_TOKENS = {"phi^-2", "qstar", "q*", "golden"}


def _parse_rational(text: str, name: str) -> Fraction:
    """``text`` read exactly: ``Fraction`` parses every finite decimal, and
    rejects NaN and the infinities."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name}: cannot parse {text!r} as an exact rational") from None


def _parse_q(text: str) -> Fraction | Q5:
    from .qfield import QSTAR

    if text.strip().lower() in _GOLDEN_TOKENS:
        return QSTAR
    return _parse_rational(text, "q")


def _exact_strs(
    values: Sequence[Fraction | Q5], golden_point: tuple[int, Sequence[str]] | None = None
) -> list[str]:
    """The exact column of each value, all rendered in one call, so that an
    integer two values share is converted to digits once: a rational as
    ``Fraction.__str__`` writes it, an irrational Q5 as ``√5 form = golden form``.

    ``golden_point = (N, names)`` says that the values are the golden-point values
    of N with those names in ``folded``'s forms (``s0``, ``i1``, ``var``,
    ``lambda``, …); they print from the digits of F_N and L_N.  Every other
    value prints through :func:`~.qfield.exact_forms`."""
    from .qfield import Q5, exact_forms

    if golden_point is None:
        forms = iter(exact_forms(*values))
    else:
        from .folded import _golden_exact_forms

        forms = iter(_golden_exact_forms(*golden_point))
    return [
        f"{sqrt5} = {golden}" if isinstance(v, Q5) and not v.is_rational else sqrt5
        for v, sqrt5, golden in zip(values, forms, forms)
    ]


def _check_digits(digits: int) -> None:
    """Reject a negative ``--digits`` whatever the format (decimal_str's message)."""
    if digits < 0:
        raise ValueError("digits must be >= 0")


def _json(doc: object, indent: int | None = None) -> str:
    """The CLI's json: sorted keys, non-ASCII characters escaped."""
    import json

    return json.dumps(doc, indent=indent, sort_keys=True)


#: the text :mod:`json` writes for the floats whose ``repr`` is not JSON
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: one ``{"kappa": …, "q": …, "theta": …}`` row of the ``schur`` json curve, as
#: ``json.dumps(doc, indent=2, sort_keys=True)`` lays it out
_CURVE_ROW = '    {\n      "kappa": %s,\n      "q": %s,\n      "theta": %s\n    }'


def _json_float(x: float) -> str:
    """``x`` as :mod:`json` writes a float: its ``repr``, or ``NaN``,
    ``Infinity`` or ``-Infinity``."""
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _exp(theta: float) -> float:
    """``e^θ`` as a float: ``inf`` past the largest finite float, where
    :func:`math.exp` raises (θ above about 709.78)."""
    try:
        return math.exp(theta)
    except OverflowError:
        return math.inf


def _cell(x: float, width: int, decimals: int) -> str:
    """``x`` in fixed point, or in exponent form where that is wider than
    ``width``: a sign, a digit, the point, ``width − 8`` digits and e±ddd fit
    every finite float."""
    text = f"{x:>{width}.{decimals}f}"
    return text if len(text) <= width else f"{x:>{width}.{width - 8}e}"


def _print_payload(payload: dict[str, object], fmt: str, table_lines: list[str]) -> None:
    """Render a flat payload; its csv is ``key,value`` rows, with lists as
    json, quoted as :mod:`csv` quotes a field."""
    if fmt == "json":
        print(_json(payload, indent=2))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in payload.items():
            writer.writerow([key, _json(value) if isinstance(value, list) else value])
    else:
        print("\n".join(table_lines))


def _cmd_moments(args: argparse.Namespace) -> int:
    from .folded import moments, sums_closed
    from .qfield import Q5, decimal_str

    _check_digits(args.digits)
    q = _parse_q(args.q)
    s = sums_closed(args.N, q)
    m = moments(args.N, q)
    values = [*s[2:], *m[2:]]  # S0…S3, I1, I2, I3, Var and I2'
    q_label = "q⋆ = (3 − √5)/2" if isinstance(q, Q5) else str(q)
    print(f"N = {args.N}, q = {q_label}")
    columns = []
    if args.format != "decimal":
        names = s._fields[2:] + m._fields[2:]  # s0…s3, i1, i2, i3, var, i2_prime
        columns.append(_exact_strs(values, (args.N, names) if isinstance(q, Q5) else None))
    if args.format != "exact":
        columns.append([decimal_str(v, args.digits) for v in values])
    shown = [" ≈ ".join(texts) for texts in zip(*columns)]
    shown.insert(8, shown[7])  # I1' is Var
    labels = ("S0", "S1", "S2", "S3", "I1", "I2", "I3", "Var", "I1'", "I2'")
    print("\n".join(f"{label:>4} = {text}" for label, text in zip(labels, shown)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    doc = run_suite(args.suite, args.seed)
    sys.stdout.write(doc.render(args.format))
    return doc.exit_code


def _cmd_schur(args: argparse.Namespace) -> int:
    from .schur import FamilyValidationError, kappa_convexity_scan, load_family

    if args.fit_law and args.theta_max >= 0:  # the folded law needs 0 < q = e^θ < 1
        raise ValueError(
            f"--fit-law needs theta_max < 0, so that every q = e^theta of the grid "
            f"lies in 0 < q < 1; got theta_max = {args.theta_max}"
        )
    if args.fit_law and _exp(args.theta_min) == 0.0:  # θ below about −745.13
        raise ValueError(
            f"--fit-law needs q = e^theta_min > 0, but it underflows to 0.0 (theta_min "
            f"below about -745.13); got theta_min = {args.theta_min}"
        )
    try:
        fam = load_family(args.hessian_file)
    except FamilyValidationError as exc:
        print("family validation failed:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    scan = kappa_convexity_scan(fam, args.theta_min, args.theta_max, args.points)
    curve = [(t, _exp(t), k) for t, k in zip(scan.thetas, scan.kappas)]
    if args.fit_law:  # before any output: a degenerate fit prints nothing
        from .floatlaw import quadratic_law_fit

        fit = quadratic_law_fit([(q, k) for _, q, k in curve], fam.n)
        a, b, residual = float(fit.a), float(fit.b), fit.max_abs_residual
    d2_min, violations = scan.min_second_difference, list(scan.violations)
    if args.format == "json":
        doc: dict[str, object] = {
            "N": fam.n,
            "curve": [],
            "convexity": {
                "min_second_difference": d2_min,
                "violations": violations,
                "convex_ok": scan.convex_ok,
            },
        }
        if args.fit_law:
            doc["fit"] = {"A": a, "B": b, "max_abs_residual": residual}
        # the curve rows from one template, the bytes json.dumps writes for them
        rows = ",\n".join(
            _CURVE_ROW % (_json_float(k), _json_float(q), _json_float(t)) for t, q, k in curve
        )
        lines = [_json(doc, indent=2).replace('"curve": []', f'"curve": [\n{rows}\n  ]', 1)]
    elif args.format == "csv":
        lines = ["theta,q,kappa"]
        lines += [f"{t:.12g},{q:.12g},{k:.12g}" for t, q, k in curve]
        lines.append(f"# convex_ok={scan.convex_ok} min_second_difference={d2_min:.6e}")
        if violations:
            lines.append(f"# violations at grid indices {violations}")
        if args.fit_law:
            lines.append(f"# fit A={a:.12g} B={b:.12g} max_abs_residual={residual:.6e}")
    else:
        status = "pass" if scan.convex_ok else f"FAIL at indices {violations}"
        lines = [
            f"κ_Schur curve, N = {fam.n}, {args.points} points",
            f"{'theta':>12}  {'q':>10}  {'kappa':>14}",
            *(f"{_cell(t, 12, 6)}  {_cell(q, 10, 6)}  {_cell(k, 14, 8)}" for t, q, k in curve),
            f"convexity: {status} (min second difference {d2_min:.6e})",
        ]
        if args.fit_law:
            lines.append(
                f"quadratic-law fit: A = {a:.10g}, B = {b:.10g}, max |residual| = {residual:.6e}"
            )
    print("\n".join(lines))
    return 0 if scan.convex_ok else 1


def _cmd_stationarity(args: argparse.Namespace) -> int:
    from .golden import lambda_n
    from .lockin import stationarity_check, synthesize_consistent_ab
    from .qfield import decimal_str

    if args.N < 3:
        raise ValueError(
            "stationarity synthesis needs N >= 3 (for N <= 2, Λ does not vary with q, so the "
            "synthesized F'_red vanishes identically and there is no lock-in to check), "
            f"got N = {args.N}"
        )
    b = _parse_rational(args.B, "B")
    m2 = _parse_rational(args.m_rho_sq, "m-rho-sq")
    coeffs = synthesize_consistent_ab(b, args.N, m2)
    lam = lambda_n(args.N)
    rep = stationarity_check(coeffs)
    a_exact, lam_exact = _exact_strs([coeffs.a]) + _exact_strs([lam], (args.N, ["lambda"]))
    payload = {
        "N": args.N,
        "B": str(b),
        "m_rho_sq": str(m2),
        "A_exact": a_exact,
        "A_decimal": decimal_str(coeffs.a, 12),
        "lambda_exact": lam_exact,
        "lambda_decimal": decimal_str(lam, 10),
        "bracket_residual": str(rep.bracket),
        "f_prime_at_golden_point": str(rep.f_prime_at_star),
        "stationary": rep.stationary,
        "sign_changes": rep.sign_changes,
        "sign_change_intervals_q": [[float(lo), float(hi)] for lo, hi in rep.sign_change_intervals],
    }
    # synthesized coefficients have −c/B = Λ(q⋆) when B ≠ 0, and B = c = 0 when B = 0
    if rep.degenerate:
        reason = "B = c = 0, so F'_red vanishes identically"
    else:
        reason = f"−c/B = Λ(q⋆) lies in (3, {args.N + 1}), where Λ rises strictly: the zero is q⋆"
    table = [
        f"N = {args.N}, m_ρ² = {m2}, B = {b}",
        f"Λ(N) = {payload['lambda_exact']} ≈ {payload['lambda_decimal']}",
        f"A = {payload['A_exact']} ≈ {payload['A_decimal']}",
        f"bracket residual = {payload['bracket_residual']}",
        f"F'(θ⋆) = {payload['f_prime_at_golden_point']}",
        f"stationary at the golden point: {'yes' if rep.stationary else 'NO'}",
        f"sign changes of F'_red on 0 < q < 1: {rep.sign_changes} ({reason})",
    ]
    _print_payload(payload, args.format, table)
    return 0 if rep.stationary and rep.sign_changes == 1 else 1


def _read_points(path: str) -> list[tuple[Fraction, Fraction]]:
    """(q, κ) rows of a CSV file.  Blank lines and ``#`` comments are skipped;
    the first other row is a header if it has no digit."""
    points: list[tuple[Fraction, Fraction]] = []
    header_possible = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'q,kappa', got {raw!r}")
            try:
                points.append(
                    (_parse_rational(parts[0], "q"), _parse_rational(parts[1], "kappa"))
                )
            except ValueError:
                if not header_possible or any(c.isdigit() for c in line):
                    raise
            header_possible = False
    return points


def _cmd_fit_ab(args: argparse.Namespace) -> int:
    from .floatlaw import quadratic_law_fit
    from .qfield import decimal_str

    points = _read_points(args.points)
    fit = quadratic_law_fit(points, args.N)
    a_exact, b_exact = _exact_strs([fit.a, fit.b])
    payload = {
        "N": args.N,
        "A": a_exact,
        "B": b_exact,
        "A_decimal": decimal_str(fit.a, 12),
        "B_decimal": decimal_str(fit.b, 12),
        "residuals": [str(r) for r in fit.residuals],
        "max_abs_residual": fit.max_abs_residual,
    }
    table = [
        f"N = {args.N}, {len(points)} samples",
        f"A = {payload['A']} ≈ {payload['A_decimal']}",
        f"B = {payload['B']} ≈ {payload['B_decimal']}",
        f"residuals: {payload['residuals']} (max |r| = {fit.max_abs_residual:.6e})",
    ]
    _print_payload(payload, args.format, table)
    return 0


def _cmd_golden_table(args: argparse.Namespace) -> int:
    from .golden import golden_power_table

    rows = golden_power_table(args.max_m)
    if args.format == "json":
        lines = [_json([{"m": r.m, "a": r.a, "b": r.b} for r in rows], indent=2)]
    elif args.format == "csv":
        lines = ["m,a,b"] + [f"{r.m},{r.a},{r.b}" for r in rows]
    else:
        width = len(str(rows[-1].a))
        lines = [f"{'m':>4}  {'a_m':>{width}}  {'b_m':>{width + 1}}"]
        lines += [f"{r.m:>4}  {r.a:>{width}}  {r.b:>{width + 1}}" for r in rows]
    print("\n".join(lines))
    return 0


def _cmd_lambda(args: argparse.Namespace) -> int:
    from .folded import _golden_exact_forms
    from .golden import lambda_n
    from .qfield import decimal_str

    _check_digits(args.digits)
    lam = lambda_n(args.N)
    sqrt5_basis, golden_basis = _golden_exact_forms(args.N, ["lambda"])
    decimal = decimal_str(lam, args.digits)
    payload = {"N": args.N, "sqrt5_basis": sqrt5_basis, "golden_basis": golden_basis, "decimal": decimal}
    table = [f"Λ({args.N}) = {sqrt5_basis} = {golden_basis} ≈ {decimal}"]
    _print_payload(payload, args.format, table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldenschur",
        description="Exact golden-point identities and Schur-curvature checks "
        "for folded exponential families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("moments", help="power sums and folded moments at (N, q)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument(
        "--q", required=True, help="rational like 1/2, decimal (read exactly), or phi^-2 / qstar"
    )
    p.add_argument("--format", choices=("exact", "decimal", "both"), default="both")
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("schur", help="κ_Schur curve and property report for a family file")
    p.add_argument("hessian_file")
    p.add_argument("theta_min", type=float)
    p.add_argument("theta_max", type=float)
    p.add_argument("points", type=int)
    p.add_argument("--fit-law", action="store_true", help="fit κ = A·I1² + B·Var to the curve")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("stationarity", help="synthesize consistent (A, B) and check q⋆")
    p.add_argument("--N", type=int, default=12)
    p.add_argument(
        "--m-rho-sq",
        default="2",
        help="collective normalization m_ρ² (rational; decimals are read exactly)",
    )
    p.add_argument(
        "--B", required=True, help="law coefficient B (rational; decimals are read exactly)"
    )
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_stationarity)

    p = sub.add_parser("fit-ab", help="identify (A, B) from a CSV of q,kappa rows")
    p.add_argument("--points", required=True, help="CSV file of q,kappa rows")
    p.add_argument("--N", type=int, default=12)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_fit_ab)

    p = sub.add_parser("golden-table", help="reduction table q⋆^m = a_m·q⋆ + b_m")
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--format", choices=("table", "csv", "json"), default="csv")
    p.set_defaults(func=_cmd_golden_table)

    p = sub.add_parser("lambda", help="Λ(N) in both bases and decimal")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--digits", type=int, default=10)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_lambda)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift Python's int↔str digit limit so exact values print at any size,
    then restore the caller's setting."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


#: The parser ``main`` reuses; building it costs far more than a parse.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with _unlimited_int_digits():
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry point: exit with :func:`main`'s code, its heap frozen.

    ``gc.freeze()`` moves every tracked object to the permanent generation,
    so the full collections of interpreter shutdown find nothing to scan
    over a heap the OS is about to reclaim.  It runs in a ``finally``, so an
    argparse exit or an uncaught exception skips them too.  Output is
    flushed and atexit handlers run as before; cyclic garbage with a
    finalizer is not collected, and the CLI holds none that writes.  Call
    :func:`main` in a long-lived process: a frozen heap is never collected.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
