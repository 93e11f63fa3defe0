"""bellepr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-hi-res --seed 0 --seconds 42 --trace 0

Run from the root of a checkout that holds ``src/bellepr``; nothing needs to be
installed.  A run lasts ``--seconds`` (plus the job under way when they are
up).  It runs the workload's jobs (see ``workloads.py``) and spreads its side
children evenly over that time: five cold ``bellepr --version`` (``setup_s``)
and six cold ``oracle-verify`` rounds at N=2 and N=3 (``oracle_run_s_p50``).
It prints one line per metric and, last, one JSON object.

Every invocation's output is checked (``checks.py``); a non-zero exit, an
exception or a failed check counts in ``failed``.  With ``--trace 1`` every
workload job runs untraced and then traced, the oracle children are traced,
and the run reports per-layer metrics instead of end-to-end ones.  BLAS runs
with one thread in this process and in every child.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import compileall  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import IN_PROCESS, WORKLOADS, Job, jobs, probe_jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "setup_s": "s",
    "cli_run_s_p50": "s",
    "cli_run_s_tail": "s",
    "oracle_run_s_p50": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with at least ten samples beyond it,
    but never below the median rank.

    Up to 21 samples no rank above the median has ten beyond it, and the
    median rank is reported; the label says so.  The rank moves by at most
    one when a run makes one call more or fewer, so the value does not jump
    between the median and the maximum as the host's speed varies."""
    s = sorted(samples)
    n = len(s)
    k = max(n - 11, (n - 1) // 2)
    label = f"p{100.0 * (k + 1) / n:.0f} of {n} samples"
    if n <= 21:
        label += " (21 or fewer: the median rank)"
    return s[k], label


def interleave(*lists: list) -> list:
    """Merge lists so that each one's items are spread evenly through the
    result, keeping their order."""
    keyed = sorted(((i + 0.5) / len(items), k, i)
                   for k, items in enumerate(lists) for i in range(len(items)))
    return [lists[k][i] for _, k, i in keyed]


class Run:
    def __init__(self, workload: str, seed: int, traced: bool, work: Path) -> None:
        self.workload, self.seed, self.traced, self.work = workload, seed, traced, work
        self.reference = checks.load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []
        self.tracer = None
        self._n = 0

    # -- bookkeeping ------------------------------------------------------

    def _paths(self, job) -> tuple[Path, Path]:
        self._n += 1
        cfg = self.work / f"job{self._n}.yaml"
        cfg.write_text(job.text, encoding="utf-8")
        return cfg, self.work / f"job{self._n}.out"

    def _verdict(self, job, rc, stdout: str, out: Path, error: str | None) -> int:
        """Rows written (correlate) after checking; records any failure."""
        self.attempted += 1
        problems = [error] if error else []
        rows = 0
        if not problems:
            if job.command == "correlate":
                text = out.read_text(encoding="utf-8") if out.is_file() else ""
                problems = checks.check_correlate(text, job.rows, self.reference.get(job.sha))
                rows = len(checks.read_csv(text)[1])
            elif job.command == "oracle-verify":
                problems = checks.check_result_line(stdout, checks.ORACLE_PASS)
            elif job.command == "diagnose":
                problems = checks.check_result_line(stdout, checks.DIAGNOSE_PASS)
            else:
                problems = checks.check_version(stdout)
        if problems:
            self.failed += 1
            self.problems.append(f"{job.command} {job.label}: {problems[0]}")
        return rows

    # -- invocations ------------------------------------------------------

    def child(self, job, traced: bool = False) -> tuple[float, int]:
        """One cold ``bellepr`` process; returns (wall seconds, rows)."""
        if job.command == "--version":
            cfg_args, out = ["--version"], self.work / "none"
        else:
            cfg, out = self._paths(job)
            cfg_args = [job.command, str(cfg), "--out", str(out), "--threads", "1"]
        argv = [sys.executable, str(HERE / "launch.py")]
        trace_file = self.work / f"trace{self._n}.json"
        if traced:
            argv += ["--trace-out", str(trace_file)]
        argv += ["--"] + cfg_args
        start = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.work, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            rc, stdout, error = proc.returncode, proc.stdout, None
            if rc != 0:
                error = f"exit code {rc}: {proc.stderr.strip()[-200:]}"
        except subprocess.TimeoutExpired:
            rc, stdout, error = None, "", f"timed out after {CHILD_TIMEOUT_S} s"
        wall = perf_counter() - start
        if traced and trace_file.is_file():
            self.records.append(json.loads(trace_file.read_text()))
        return wall, self._verdict(job, rc, stdout, out, error)

    def in_process(self, job, traced: bool = False) -> tuple[float, int]:
        """One ``bellepr.cli.main`` call in this process; (wall seconds, rows)."""
        import bellepr.cli

        cfg, out = self._paths(job)
        argv = [job.command, str(cfg), "--out", str(out), "--threads", "1"]
        if traced:
            self.tracer.install()
        sink = io.StringIO()
        rc, error = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = bellepr.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed invocation
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall = perf_counter() - start
            if traced:
                self.tracer.uninstall()
        if rc not in (0, None) and error is None:
            error = f"exit code {rc}: {sink.getvalue().strip()[-200:]}"
        return wall, self._verdict(job, rc, sink.getvalue(), out, error)

    # -- phases -----------------------------------------------------------

    def loop(self, seconds: float, side: list):
        """The workload's jobs, in order, for ``seconds`` of wall time, with
        the cold ``side`` children spread evenly over that time.

        Yields (job, wall, rows, traced).  The side children count in the
        ``seconds``, so a run lasts as long on a slow host as on a fast one,
        and every side child runs even if they overrun it.  In traced runs
        every workload job runs untraced and then traced, and side children
        run traced."""
        call = self.in_process if self.workload in IN_PROCESS else self.child
        side = list(side)
        gap = seconds / (len(side) + 1)
        due, start = gap, perf_counter()
        for job in jobs(self.workload, self.seed):
            while side and perf_counter() - start >= due:
                job_s = side.pop(0)
                yield (job_s, *self.child(job_s, self.traced), self.traced)
                due += gap
            if perf_counter() - start >= seconds:
                break
            for traced in (False, True) if self.traced else (False,):
                wall, rows = call(job, traced)
                yield job, wall, rows, traced
        for job_s in side:
            yield (job_s, *self.child(job_s, self.traced), self.traced)


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    if run.workload in IN_PROCESS:
        import bellepr.cli  # noqa: F401  (warm-up: the first call does not pay the import)

    side = interleave([Job("--version", "version", "")] * SETUP_REPEATS, probe_jobs(run.seed))
    setup, cli_runs, oracle_walls = [], [], {2: [], 3: []}
    corr_wall, rows = 0.0, 0
    for job, wall, n, _ in run.loop(seconds, side):
        if job.command == "--version":
            setup.append(wall)
        elif job.command == "oracle-verify":
            oracle_walls[job.n_osc].append(wall)
        else:
            cli_runs.append(wall)
            if job.command == "correlate":
                corr_wall += wall
                rows += n
    oracle_rounds = [a + b for a, b in zip(oracle_walls[2], oracle_walls[3])]
    who = resource.RUSAGE_SELF if run.workload in IN_PROCESS else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    tail_s, tail_note = tail(cli_runs)
    values = {
        "points_per_s": rows / corr_wall if corr_wall else 0.0,
        "setup_s": statistics.median(setup),
        "cli_run_s_p50": statistics.median(cli_runs),
        "cli_run_s_tail": tail_s,
        "oracle_run_s_p50": statistics.median(oracle_rounds),
        "peak_rss_mb": peak_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    notes = [
        f"points_per_s: {rows} CSV rows over {corr_wall:.3f} s of correlate calls",
        f"setup_s: median of {len(setup)} cold `bellepr --version`",
        f"cli_run_s_*: {len(cli_runs)} "
        + ("in-process correlate calls" if run.workload in IN_PROCESS
           else "cold correlate/diagnose children") + f"; tail is the {tail_note}",
        f"oracle_run_s_p50: median of {len(oracle_rounds)} cold N=2 + N=3 pairs: "
        + " ".join(f"{w:.3f}" for w in oracle_rounds),
        "peak_rss_mb: ru_maxrss of " + ("the children" if who == resource.RUSAGE_CHILDREN
                                        else "the benchmark process"),
    ]
    return metrics, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str]]:
    run.tracer = Tracer()
    if run.workload in IN_PROCESS:
        start = perf_counter()
        import bellepr.cli  # noqa: F401  (first import in this process, timed)

        run.tracer.import_s.append(perf_counter() - start)
    plain = traced = 0.0
    pairs = 0
    side = probe_jobs(run.seed)
    for job, wall, _, with_trace in run.loop(seconds, side):
        if job in side:
            continue
        if with_trace:
            traced += wall
            pairs += 1
        else:
            plain += wall
    if run.workload in IN_PROCESS:
        run.records.append(run.tracer.record())
    overhead = traced / plain - 1.0 if plain else 0.0
    layers = layer_metrics(run.records, overhead, traced)
    metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    notes = [f"trace.overhead_frac: {pairs} jobs run untraced then traced "
             f"({plain:.3f} s vs {traced:.3f} s)"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bellepr" / "cli.py").is_file():
        print(f"perfbench: no bellepr sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, bool(args.trace), work)
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_frac':40s} {fail_frac:.6g} ({run.failed}/{run.attempted} invocations)")
    for note in notes:
        print(f"  {note}")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"check: {'PASS' if run.failed == 0 else 'FAIL'}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
