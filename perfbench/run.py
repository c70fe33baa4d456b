"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs ``src/deadtime`` from there and
writes only under ``.bench_work/``, which it removes again.

``--trace 0`` measures end to end.  The workload's operations repeat, each
in a fresh process exactly as a user runs it, and each repetition follows
one fresh-interpreter ``import deadtime.cli``.  A new repetition starts only
while it is expected to end within ``--seconds`` of the run's start, with at
least ``MIN_REPS`` of them.  Set-up time is the median import time (topped
up to ``SETUP_RUNS`` imports).  Wall time, CPU time and peak memory are
taken per operation as the median over repetitions, so a stall that hits
one repetition of one operation moves no metric: ``wall_s`` and ``cpu_s``
sum the operations' medians, ``peak_rss_mb`` is the largest median.  CPU
time and peak memory come from ``os.wait4`` per child process.

``--trace 1`` runs the operations once untraced in fresh processes, then
alternates untraced and traced in-process repetitions within the same time
limit.  The traced ones give the per-layer numbers, their difference gives
the tracing overhead, and their outputs must match the untraced processes'
byte for byte.

Outputs are checked against independent routes outside the timed region.
The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit, as listed in BENCHMARK.json).  The
line before it records the machine, the parameters the seed chose, and
every check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SETUP_RUNS = 5  # fewest fresh-interpreter imports per set-up measurement
MIN_REPS = 2  # repetitions per run even when they outlast --seconds
OP_TIMEOUT_S = 150.0  # an operation still running after this is killed and fails
WORK_DIR = ".bench_work"


class Measured:
    """Wall time of one repetition, and wall, CPU and peak memory per operation."""

    def __init__(self):
        self.wall = 0.0
        self.codes: list[int] = []
        self.op_walls: list[float] = []
        self.op_cpus: list[float] = []
        self.op_rss_mb: list[float] = []


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def spawn(argv, cwd, env, log_path):
    """Run one child to completion; return (exit code, wall, cpu, peak RSS in MB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def op_argv(op: workloads.Op) -> list[str]:
    if op.argv is None:
        return [sys.executable, os.path.join(HERE, "library_ops.py"), "params.json", "routes.npz"]
    return [sys.executable, "-m", "deadtime.cli", *op.argv]


def prepare(plan, outdir):
    os.makedirs(outdir)
    if any(op.argv is None for op in plan.ops):
        with open(os.path.join(outdir, "params.json"), "w", encoding="ascii") as fh:
            json.dump(plan.params, fh)


def process_rep(plan, outdir, env, log_path) -> Measured:
    prepare(plan, outdir)
    m = Measured()
    start = time.perf_counter()
    for op in plan.ops:
        code, wall, cpu, rss = spawn(op_argv(op), outdir, env, log_path)
        m.codes.append(code)
        m.op_walls.append(wall)
        m.op_cpus.append(cpu)
        m.op_rss_mb.append(rss)
    m.wall = time.perf_counter() - start
    return m


def inprocess_rep(plan, outdir, tracer=None):
    """The same operations called in this process; with a tracer, per-layer spans."""
    from deadtime import cli

    import library_ops

    prepare(plan, outdir)
    m = Measured()
    op_spans = []
    home = os.getcwd()
    os.chdir(outdir)
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for k, op in enumerate(plan.ops):
            if tracer is not None:
                tracer.op = k
                span = tracer.open(f"cli.{op.argv[0]}" if op.argv else f"lib.{plan.workload}")
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(op.argv)) if op.argv else library_ops.main("params.json", "routes.npz")
            except Exception:  # a crash fails this operation; the run goes on
                traceback.print_exc(file=sys.stderr)
                code = 1
            if tracer is not None:
                tracer.close(span)
                op_spans.append(span)
            m.codes.append(code)
        m.wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        os.chdir(home)
    return m, op_spans


# ---------------------------------------------------------------------------
# outputs and checks
# ---------------------------------------------------------------------------


def digest(path: str) -> str | None:
    """Content hash of an output; ``.npz`` archives hash their arrays, not the zip."""
    h = hashlib.sha256()
    try:
        if path.endswith(".npz"):
            with np.load(path) as npz:
                for key in sorted(npz.files):
                    h.update(key.encode())
                    h.update(npz[key].tobytes())
        else:
            with open(path, "rb") as fh:
                h.update(fh.read())
    except (OSError, ValueError):
        return None
    return h.hexdigest()


def digests(plan, outdir) -> list[dict[str, str | None]]:
    return [{p: digest(os.path.join(outdir, p)) for p in op.outputs} for op in plan.ops]


RATIO_CAP = 1e9  # error/tolerance reported for a failed check with no finite ratio


def ratio(check: workloads.Check) -> float:
    if not np.isfinite(check.error):
        return RATIO_CAP
    if check.tol == 0.0:
        return 0.0 if check.error == 0.0 else RATIO_CAP
    return check.error / check.tol


class Ledger:
    """Operations attempted and failed, and every check made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[workloads.Check] = []
        self.notes: list[str] = []

    def record(self, plan, codes, checks, mismatched=()):
        self.checks += checks
        for k, (op, code) in enumerate(zip(plan.ops, codes)):
            bad = [c for c in checks if c.op == k and not c.ok]
            if code != 0:
                self.notes.append(f"{op.name}: exit {code}")
                lost = op.units
            elif k in mismatched:
                self.notes.append(f"{op.name}: output differs from the untraced run")
                lost = op.units
            else:  # the library process counts each failed route pair
                lost = min(len(bad), op.units)
            self.attempted += op.units
            self.failed += lost

    def worst_ratio(self) -> float:
        return max((ratio(c) for c in self.checks), default=0.0)


def checked_rep(plan, outdir, codes, ledger, reference):
    """Check a repetition; one whose outputs equal the reference reuses its checks."""
    sums = digests(plan, outdir)
    if reference is not None and sums == reference[0]:
        ledger.record(plan, codes, [])
        return reference
    checks = plan.check(outdir)
    ledger.record(plan, codes, checks)
    return sums, checks


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def median(values):
    return float(statistics.median(values))


def import_time(work, env, log_path) -> float:
    """Wall time of one fresh interpreter importing the CLI: every command's fixed cost."""
    code, wall, _, _ = spawn([sys.executable, "-c", "import deadtime.cli"], work, env, log_path)
    if code != 0:
        raise SystemExit(f"error: importing deadtime.cli failed (exit {code}); see {log_path}")
    return wall


def per_op_median(reps, field):
    """The median over repetitions of each operation's value of ``field``."""
    return [median(values) for values in zip(*(getattr(m, field) for m in reps))]


def measured_run(plan, args, work, env, log_path, ledger):
    start = time.perf_counter()
    setup, reps, reference = [], [], None
    while True:
        setup.append(import_time(work, env, log_path))
        outdir = os.path.join(work, f"rep{len(reps)}")
        m = process_rep(plan, outdir, env, log_path)
        reps.append(m)
        got = checked_rep(plan, outdir, m.codes, ledger, reference)
        if reference is None:
            reference = got
        shutil.rmtree(outdir)
        next_end = time.perf_counter() - start + setup[-1] + m.wall
        if len(reps) >= MIN_REPS and next_end > args.seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(import_time(work, env, log_path))

    metrics = {
        "wall_s": sum(per_op_median(reps, "op_walls")),
        "cpu_s": sum(per_op_median(reps, "op_cpus")),
        "peak_rss_mb": max(per_op_median(reps, "op_rss_mb")),
        "setup_s": median(setup),
    }
    detail = {
        "setup_s": setup,
        "reps": [{"wall_s": m.wall, "op_wall_s": m.op_walls, "op_cpu_s": m.op_cpus,
                  "op_peak_rss_mb": m.op_rss_mb} for m in reps],
    }
    return metrics, detail


def traced_run(plan, args, work, env, log_path, ledger):
    import tracer as tracing

    start = time.perf_counter()
    tracing.load_modules()
    plain = os.path.join(work, "plain")
    m = process_rep(plan, plain, env, log_path)
    reference, _ = checked_rep(plan, plain, m.codes, ledger, None)

    layers, untraced, traced = [], [], []
    pair_s = 0.0  # wall time of the last untraced + traced pair
    while not layers or time.perf_counter() - start + pair_s <= args.seconds:
        pair_start = time.perf_counter()
        i = len(layers)
        u, _ = inprocess_rep(plan, os.path.join(work, f"untraced{i}"))
        t = tracing.Tracer()
        tm, op_spans = inprocess_rep(plan, os.path.join(work, f"traced{i}"), t)
        for outdir, rep in (("untraced", u), ("traced", tm)):
            path = os.path.join(work, f"{outdir}{i}")
            got = digests(plan, path)
            mismatched = {k for k, (a, b) in enumerate(zip(reference, got)) if a != b}
            ledger.record(plan, rep.codes, [], mismatched)
            shutil.rmtree(path)
        untraced.append(u.wall)
        traced.append(tm.wall)
        op_ids = {s.id for s in op_spans}
        spans = [s for s in t.spans if s.id not in op_ids]
        layers.append(tracing.layer_metrics(spans, op_spans))
        pair_s = time.perf_counter() - pair_start

    written = [os.path.join(plain, p) for op in plan.ops if op.argv for p in op.outputs]
    metrics = {key: median([layer[key] for layer in layers]) for key in layers[0]}
    metrics.update({
        "cli.files_written": len(written),
        "cli.bytes_written": sum(os.path.getsize(p) for p in written if os.path.exists(p)),
        "check.worst_ratio": ledger.worst_ratio(),
        "trace.overhead_s": median(traced) - median(untraced),
        "fail_ratio": ledger.failed / ledger.attempted,
    })
    detail = {"untraced_inprocess_s": untraced, "traced_inprocess_s": traced,
              "process_rep": {"wall_s": m.wall, "op_cpu_s": m.op_cpus, "op_peak_rss_mb": m.op_rss_mb}}
    return metrics, detail


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def git_sha(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(root: str) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in thread_vars if v in os.environ} or "default",
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' shrinks every size for the smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "deadtime", "cli.py")):
        print("error: run from a checkout root holding src/deadtime", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    sys.path.insert(0, os.path.join(root, "src"))  # checks and traced runs import the package

    plan = workloads.make_plan(args.workload, args.seed, args.size)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    log_path = os.path.join(work, "stderr.log")
    ledger = Ledger()
    try:
        run = traced_run if args.trace else measured_run
        values, detail = run(plan, args, work, env, log_path, ledger)
        with open(log_path, "rb") as fh:
            log_tail = fh.read()[-2000:].decode("ascii", "replace")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds a concurrent run's files
            os.rmdir(os.path.join(root, WORK_DIR))

    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "size": args.size,
        "params": plan.params,
        "machine": machine(root),
        "detail": detail,
        "checks": [{"op": plan.ops[c.op].name, "label": c.label, "ok": c.ok,
                    "error": c.error if np.isfinite(c.error) else str(c.error), "tol": c.tol}
                   for c in ledger.checks],
        "failures": ledger.notes,
    }
    if ledger.failed:
        record["stderr_tail"] = log_tail
    print(json.dumps(record, default=str))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
