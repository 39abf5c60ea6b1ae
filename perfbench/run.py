"""goldenschur benchmark: cold and warm CLI passes over seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``goldenschur`` CLI invocations generated
from the seed (see ``workloads.py``); one pass runs the list once.  The load
model is a closed loop with one client:

* cold mode runs each invocation as a fresh ``python -m goldenschur``
  subprocess, interpreter start and imports included;
* warm mode calls ``goldenschur.cli.main(argv)`` in this process with stdout
  and stderr captured, after one untimed warm-up pass.

Every output of every pass is checked against an independent oracle.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a separate traced run of all
workloads' warm passes.  Every run prints the environment block to stderr.
"""

from __future__ import annotations

import os

#: Applied here, before numpy loads, and to every subprocess.  The load model
#: is one single-threaded client on a 2-CPU host shared with other tenants;
#: BLAS worker threads would compete with it and with the other processes.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"

#: (cold, warm) passes per 30 seconds, sized from the wall times of one pass
#: on the machine in environment.json (exact 4.8 s / 0.25 s, matrix 4 s /
#: 0.55 s, verify 1.7 s / 0.64 s) to at most 35 s of passes.  Forty warm
#: passes are the fewest with a p75 tail (see tail()); a verify cold pass is
#: short and noisy, so verify gets more of them.  --seconds scales the
#: counts, so both commits of a comparison time the same passes.
PASSES_PER_30S = {"exact": (3, 40), "matrix": (3, 40), "verify": (5, 40)}
#: Median wall seconds of reference_kernel() on the machine in environment.json.
REFERENCE_KERNEL_S = 0.041
#: Kernel runs on either side of a sample, beyond the two adjacent ones, whose
#: median gives the sample's speed factor.
KERNEL_WINDOW = 2
#: Fresh interpreters timed for setup_s, after one untimed priming run.
SETUP_REPS = 5
#: -X importtime runs in the traced mode.
IMPORTTIME_REPS = 5
#: An invocation still running after this many seconds ends the run without
#: a result; the slowest one takes about 1 s.
INVOCATION_TIMEOUT_S = 20.0
#: Tail percentiles need this many samples beyond them.
TAIL_BEYOND = 10

SUITES = ("appendix-b", "appendix-c", "appendix-d", "appendix-h", "schur-properties", "lockin")
SIZES = (12, 64, 256)


# ---------------------------------------------------------------------------
# running one invocation


class InvocationTimeout(BaseException):
    """Raised by SIGALRM inside a warm invocation; a BaseException so that
    the program's own handlers cannot swallow it."""


def _timed_out(signum, frame):
    raise InvocationTimeout


class Runner:
    """Runs invocations cold or warm and judges every result."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
            PYTHONIOENCODING="utf-8",
        )
        self.cli = None
        self.attempted = 0
        self.failed = 0
        self.nonzero_exits = 0
        self.warmup_failed = False
        self.peak_rss_kb = 0
        self.verdicts: dict[tuple, str | None] = {}
        self.reasons: list[str] = []

    def cold(self, argv: tuple[str, ...], *, python_args: tuple[str, ...] = ("-m", "goldenschur")):
        """Fresh interpreter: (seconds, exit code, stdout, stderr, max RSS in KiB)."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *python_args, *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if seconds >= INVOCATION_TIMEOUT_S:
            raise SystemExit(f"timed out after {INVOCATION_TIMEOUT_S:g} s: {' '.join(argv)}")
        return (
            seconds,
            proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss,
        )

    def load_cli(self) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("goldenschur.cli")

    def warm(self, argv: tuple[str, ...]) -> tuple[float, int, str, str]:
        """In-process ``main(argv)``: (seconds, exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # what the interpreter would print, exit 1
                    traceback.print_exc()
                    code = 1
        except InvocationTimeout:
            raise SystemExit(f"timed out after {INVOCATION_TIMEOUT_S:g} s: {' '.join(argv)}") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()

    def judge(self, inv, code: int, out: str, err: str) -> str | None:
        """Check one result; outputs are deterministic, so each distinct one is
        checked once."""
        key = (inv.argv, code, out, err)
        if key not in self.verdicts:
            try:
                with workloads.unlimited_int_digits():
                    self.verdicts[key] = inv.check(code, out, err)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[key] = f"unreadable output ({type(exc).__name__}: {exc})"
        return self.verdicts[key]

    def record(self, inv, code: int, out: str, err: str) -> None:
        self.attempted += 1
        reason = self.judge(inv, code, out, err)
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{' '.join(inv.argv)}: {reason}")

    def cold_pass(self, invocations) -> float:
        total = 0.0
        for inv in invocations:
            seconds, code, out, err, rss = self.cold(inv.argv)
            total += seconds
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            self.record(inv, code, out, err)
        return total

    def warm_pass(self, invocations, *, count: bool = True) -> float:
        gc.collect()
        total = 0.0
        for inv in invocations:
            seconds, code, out, err = self.warm(inv.argv)
            total += seconds
            self.nonzero_exits += code != 0
            if count:
                self.record(inv, code, out, err)
            elif (reason := self.judge(inv, code, out, err)) is not None:
                self.warmup_failed = True
                self.reasons.append(f"warm-up {' '.join(inv.argv)}: {reason}")
        return total


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it.  Below 4·TAIL_BEYOND samples that percentile lies under p75,
    which is no tail, and the maximum (p100) is reported instead."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND samples above
    if k < 0.75 * n:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / n


def reference_kernel() -> float:
    """Wall seconds of fixed work that no change to the program can alter:
    starting a bare interpreter, Fraction and big-integer arithmetic, JSON
    encoding and small symmetric eigenproblems, the kinds of work the
    workloads do.

    On a 2-CPU host shared with other tenants, speed drifts by ±20 % over
    tens of seconds as they come and go.  Timing this kernel around every
    sample gives the speed factor that scales the sample to the reference
    machine."""
    a = np.arange(96 * 96, dtype=float).reshape(96, 96) % 7.0
    a = a + a.T
    base, x, s = 3, Fraction(1, 3), Fraction(0)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    for i in range(400):
        s += x * i
        x = x * Fraction(7, 5) % 11
    str(base**4000 * base**4000 // 7)
    json.dumps([{"k": i, "v": str(i)} for i in range(3000)])
    for _ in range(20):
        np.linalg.eigvalsh(a)
    return time.perf_counter() - t0


def schedule(workload: str, seconds: float) -> list[str]:
    """Cold passes, warm passes and set-up runs, each kind spread evenly over
    the run so that slow drifts in machine speed touch all of them alike."""
    n_cold, n_warm = PASSES_PER_30S[workload]
    counts = {
        "cold": max(3, round(n_cold * seconds / 30)),
        "warm": max(5, round(n_warm * seconds / 30)),
        "setup": SETUP_REPS,
    }
    steps = [((i + 0.5) / n, kind) for kind, n in counts.items() for i in range(n)]
    return [kind for _, kind in sorted(steps)]


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Thread count of the BLAS library numpy loaded, asked through its own API."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.split()[-1].lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "thread_env": THREAD_ENV,
        "thread_env_reason": "one single-threaded client on a 2-CPU host shared with "
        "other tenants; BLAS worker threads would compete with it",
    }


# ---------------------------------------------------------------------------
# the two modes


def import_cli(runner: Runner, python_args: tuple[str, ...] = ()) -> tuple[float, str]:
    """A fresh interpreter importing goldenschur.cli: (wall seconds, stderr)."""
    seconds, code, _, err, _ = runner.cold((), python_args=(*python_args, "-c", "import goldenschur.cli"))
    if code != 0:
        raise SystemExit(f"importing goldenschur.cli failed: {err.strip()[-300:]}")
    return seconds, err


def run_probes(runner: Runner) -> tuple[int, bool]:
    """Known-defect probes, untimed: (failures, whether every failure is the
    known digit-limit error rather than a wrong answer)."""
    failed, ok = 0, True
    for inv in workloads.defect_probes():
        _, code, out, err, _ = runner.cold(inv.argv)
        runner.attempted += 1
        reason = runner.judge(inv, code, out, err)
        if reason is None:
            continue
        runner.failed += 1
        failed += 1
        known = code == 2 and workloads.DIGIT_LIMIT_MESSAGE in err
        runner.reasons.append(
            f"probe {' '.join(inv.argv)}: " + ("known defect, " if known else "") + reason
        )
        ok = ok and known
    return failed, ok


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    runner = Runner(workdir)
    invocations = workloads.BUILDERS[workload](seed, workdir)
    import_cli(runner)  # primes the bytecode cache
    probe_failures, probes_ok = run_probes(runner) if workload == "exact" else (0, True)
    runner.load_cli()
    runner.warm_pass(invocations, count=False)

    steps: list[tuple[str, float]] = []  # (kind, wall seconds)
    step = {
        "cold": lambda: runner.cold_pass(invocations),
        "warm": lambda: runner.warm_pass(invocations),
        "setup": lambda: import_cli(runner)[0],
    }
    kernel = [reference_kernel()]
    start = time.perf_counter()
    for kind in schedule(workload, seconds):
        if time.perf_counter() - start > 3 * seconds + 30 and len({k for k, _ in steps}) == 3:
            break  # far slower than the machine the counts were sized on
        steps.append((kind, step[kind]()))
        kernel.append(reference_kernel())
    # step i lies between kernel runs i and i + 1; the median over a few runs
    # around it follows the drift without the jitter of a single run
    raw = {"cold": [], "warm": [], "setup": []}  # wall seconds
    samples = {"cold": [], "warm": [], "setup": []}  # scaled to the reference speed
    for i, (kind, wall) in enumerate(steps):
        local = statistics.median(kernel[max(0, i - KERNEL_WINDOW) : i + 2 + KERNEL_WINDOW])
        raw[kind].append(wall)
        samples[kind].append(wall * REFERENCE_KERNEL_S / local)
    cold, warm = samples["cold"], samples["warm"]

    correct = not runner.warmup_failed and probes_ok and runner.failed == probe_failures
    cold_tail, cold_pct = tail(cold)
    warm_tail, warm_pct = tail(warm)
    print(f"# cold passes: {len(cold)}, tail = p{cold_pct:.1f}; "
          f"warm passes: {len(warm)}, tail = p{warm_pct:.1f}")
    print("# unscaled wall medians: " + ", ".join(
        f"{kind} {statistics.median(values):.4f} s" for kind, values in raw.items()
    ) + f"; reference kernel median {statistics.median(kernel):.4f} s")
    metrics = {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "cold_pass_s.p50": (statistics.median(cold), "s"),
        "cold_pass_s.tail": (cold_tail, "s"),
        "warm_pass_s.p50": (statistics.median(warm), "s"),
        "warm_pass_s.tail": (warm_tail, "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MiB"),
        "success_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    return report(runner, correct, metrics)


def per_layer(seed: int, seconds: float, workdir: Path) -> dict:
    runner = Runner(workdir)
    lists = {}
    for name in workloads.WORKLOADS:
        (workdir / name).mkdir()
        lists[name] = workloads.BUILDERS[name](seed, workdir / name)

    import_cli(runner)  # primes the bytecode cache
    imports = [
        tracing.import_times(import_cli(runner, ("-X", "importtime"))[1], "goldenschur", ("numpy", "scipy"))
        for _ in range(IMPORTTIME_REPS)
    ]

    runner.load_cli()
    verify = importlib.import_module("goldenschur.verify")
    for invocations in lists.values():
        runner.warm_pass(invocations, count=False)

    tracer = tracing.Tracer(
        taggers={
            "schur.load_family": lambda a, r: f"N{r.n}" if r is not None else None,
            "schur.make_family": lambda a, r: f"N{a[0]}" if a else None,
            "schur.schur_curvature": lambda a, r: f"N{a[0].n}" if a else None,
            "schur.kappa_convexity_scan": lambda a, r: f"N{a[0].n}" if a else None,
        },
        counters={
            "folded.moments": lambda a: ("folded.moments.float_calls", int(isinstance(a[1], float))),
            "lockin.uniqueness_scan": lambda a: ("lockin.uniqueness_scan.points", len(a[1])),
        },
    )
    rounds: list[dict[str, float]] = []
    untraced, traced = [], []
    start = time.perf_counter()
    while len(rounds) < 3 or time.perf_counter() - start < seconds:
        untraced.append(sum(runner.warm_pass(inv) for inv in lists.values()))
        exits_before = runner.nonzero_exits
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(runner.warm_pass(inv) for inv in lists.values()))
        finally:
            tracer.uninstall()
        row = traced_values(tracer)
        row["cli.errors"] = runner.nonzero_exits - exits_before
        for suite in SUITES:
            t0 = time.perf_counter()
            verify.run_suite(suite, seed)
            row[f"verify.{suite}.s"] = time.perf_counter() - t0
        rounds.append(row)

    metrics = {
        f"import.{pkg}_s": (statistics.median(i[pkg] for i in imports), "s")
        for pkg in ("numpy", "scipy", "goldenschur")
    }
    for name in rounds[0]:
        if layer_unit(name) == "count":
            if len({r[name] for r in rounds}) != 1:
                print(f"# count {name} differs between traced rounds", file=sys.stderr)
            metrics[name] = (rounds[0][name], "count")
        else:
            metrics[name] = (statistics.median(r[name] for r in rounds), "s")
    # paired by round, so drift in machine speed between rounds cancels
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"# traced rounds: {len(rounds)}; warm round {statistics.median(untraced):.4f} s "
          f"untraced, {statistics.median(traced):.4f} s traced")
    return report(runner, not runner.warmup_failed and runner.failed == 0, metrics)


def traced_values(tr: tracing.Tracer) -> dict[str, float]:
    """Per-layer values of one traced round, keyed by metric name."""
    row = {
        "cli.calls": tr.calls("cli.main"),
        "cli.self_s": tr.self_seconds("cli"),
        "report.self_s": tr.self_seconds("report"),
        "qfield.Q5.ops": tr.calls("qfield.Q5.ops"),
        "qfield.decimal_str.calls": tr.calls("qfield.decimal_str"),
        "qfield.decimal_str.self_s": tr.self_seconds("qfield.decimal_str"),
        "qfield.self_s": tr.self_seconds("qfield"),
        "folded.sums_closed.calls": tr.calls("folded.sums_closed"),
        "folded.sums_closed.self_s": tr.self_seconds("folded.sums_closed"),
        "folded.sums_bruteforce.self_s": tr.self_seconds("folded.sums_bruteforce"),
        "folded.moments.float_calls": tr.counts["folded.moments.float_calls"],
        "folded.self_s": tr.self_seconds("folded"),
        "golden.lambda_n.self_s": tr.self_seconds("golden.lambda_n"),
        "golden.sums_at_qstar.self_s": tr.self_seconds("golden.sums_at_qstar"),
        "golden.reduce_power.calls": tr.calls("golden.reduce_power"),
        "golden.self_s": tr.self_seconds("golden"),
        "lockin.uniqueness_scan.self_s": tr.self_seconds("lockin.uniqueness_scan"),
        "lockin.uniqueness_scan.points": tr.counts["lockin.uniqueness_scan.points"],
        "lockin.self_s": tr.self_seconds("lockin"),
        "schur.schur_curvature.calls": tr.calls("schur.schur_curvature"),
        "schur.quadratic_law_fit.self_s": tr.self_seconds("schur.quadratic_law_fit"),
        "schur.errors": tr.counts["schur.errors"],
        "schur.self_s": tr.self_seconds("schur"),
    }
    for n in SIZES:
        curvature = f"schur.schur_curvature.N{n}"
        row[f"schur.load_family.self_s.N{n}"] = tr.self_seconds(f"schur.load_family.N{n}")
        row[f"schur.make_family.self_s.N{n}"] = tr.self_seconds(f"schur.make_family.N{n}")
        row[f"schur.schur_curvature.per_call_s.N{n}"] = tr.seconds(curvature) / max(1, tr.calls(curvature))
        row[f"schur.kappa_convexity_scan.self_s.N{n}"] = tr.self_seconds(f"schur.kappa_convexity_scan.N{n}")
    return row


def layer_unit(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) or "_s." in name else "count"


def report(runner: Runner, correct: bool, metrics: dict) -> dict:
    for reason in runner.reasons:
        print(f"# {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    return {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "goldenschur" / "cli.py").is_file():
        print(f"error: no goldenschur sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            out = per_layer(args.seed, args.seconds, workdir)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    print("# environment: " + json.dumps(environment()), file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
