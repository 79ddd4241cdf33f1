"""Benchmark of the indpoly package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it records the run's provenance (commit, Python, numpy, nproc,
seed, a digest of the generated inputs, raw timings, absent layers).

``--trace 0`` runs a closed loop of distinct jobs for T seconds and
reports the end-to-end metrics.  Their times are host-adjusted (see
``hostref.py``): each is scaled to a host on which a fixed reference
task, timed next to it, takes 2 ms.  ``--trace 1`` repeats a fixed block
of jobs in alternating untraced and traced passes for T seconds and
reports per-layer metrics per job; its counts repeat exactly for a given
seed.

Every answer is checked against an independent reference computed after
the timed loop.  Any wrong answer or error makes ``correct`` false and the
exit code 1.  ``--corrupt`` adds 1 to every oracle or kernel answer, to
show that the check catches it.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# Keep the run, set-up probes included, on one CPU, so that the reference
# task is timed on the CPU that did the work it adjusts (on a shared host
# the CPUs of one machine can differ in speed by 2x at the same moment).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostref
from tracer import COUNTING, ROOT as ROOT_SPAN, Tracer, restore

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, all per job.  "<span>.self_ms" is span time minus the
# time of child spans; "<span>.calls" and "<span>.<size>" are totals.
LAYER_METRICS = {
    "cli.main.self_ms": "ms",
    "cnf.parse_dimacs.self_ms": "ms",
    "cnf.reduce_to_x3sat.self_ms": "ms",
    "cnf.x3sat_to_graph.self_ms": "ms",
    "cnf.x3sat_to_graph.vertices": "vertices/job",
    "graphs.parse_graph.self_ms": "ms",
    "graphs.s_clone.self_ms": "ms",
    "graphs.s_clone.calls": "calls/job",
    "graphs.s_clone.vertices_out": "vertices/job",
    "graphs.comb.self_ms": "ms",
    "graphs.k_clone.self_ms": "ms",
    "clonecalc.is_compatible.self_ms": "ms",
    "clonecalc.is_compatible.calls": "calls/job",
    "clonecalc.clone_shifted_point.self_ms": "ms",
    "clonecalc.clone_correction_factor.self_ms": "ms",
    "clonecalc.normalize_point.self_ms": "ms",
    "clonecalc.TransformPlan.apply.self_ms": "ms",
    "interpolate.minimum_path_offset.self_ms": "ms",
    "interpolate.build_clone_family.self_ms": "ms",
    "interpolate.build_clone_family.calls": "calls/job",
    "interpolate.lagrange_interpolate.self_ms": "ms",
    "interpolate.interpolate_coeffs.self_ms": "ms",
    "interpolate.oracle.self_ms": "ms",
    "interpolate.oracle.calls": "calls/job",
    "isp.isp_coeffs.self_ms": "ms",
    "isp.isp_coeffs.calls": "calls/job",
    "isp.count_is_of_size.self_ms": "ms",
    "isp.isp_eval.self_ms": "ms",
    "isp.isp_eval.calls": "calls/job",
    "isp.isp_eval.vertices": "vertices/job",
    "isp.isp_eval.core_vertices": "vertices/job",
}
# The trace itself: time spent computing size counters, root-span self
# time (job time outside every layer), traced job time, and traced over
# untraced pass time.  Layer self times + counting + unattributed = job.
TRACE_METRICS = {
    "trace.counting_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.job_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package source)."""


def import_package():
    """Import indpoly from this checkout's src/, never from elsewhere."""
    if not (SRC / "indpoly" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'indpoly'}")
    sys.path.insert(0, str(SRC))
    indpoly = importlib.import_module("indpoly")
    if Path(indpoly.__file__).resolve().parent != (SRC / "indpoly").resolve():
        raise SetupError(f"indpoly imported from {indpoly.__file__}, not from {SRC}")
    return importlib.import_module("workloads")


def setup(name: str, seed: int, warm: int = 0):
    """Import, input generation and warm-up (a first call through every code
    path, on job ``warm``): the work that setup_s times.  Writing the input
    files is left out of that time: it is file-system work of the host, not
    of the package, and varied fourfold between runs on a shared host.
    Returns (workloads module, workload, inputs, jobs, workdir, seconds)."""
    started = time.perf_counter()
    wl_mod = import_package()
    workload = wl_mod.WORKLOADS[name]
    inputs = workload.generate(seed)
    files_started = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    jobs = workload.prepare(inputs, workdir)
    files_s = time.perf_counter() - files_started
    workload.run(jobs[warm])
    seconds = time.perf_counter() - started - files_s
    return wl_mod, workload, inputs, jobs, workdir, seconds


def measure_setup(name: str, seed: int):
    """Set-up time of fresh processes, each importing the package anew and
    warming up on another job, so that the median does not hang on the
    cost of one input.  Returns (raw, adjusted) samples; each is adjusted
    by a reference set-up measured right after its process, with
    reference tasks timed just before and after it."""
    raw, adjusted = [], []
    for warm in range(SETUP_REPEATS):
        refs = [hostref.time_reference() for _ in range(3)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(warm),
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        refs += [hostref.time_reference() for _ in range(3)]
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(sample)
        adjusted.append(hostref.adjust_setup(sample, hostref.time_import(), refs))
    return raw, adjusted


def setup_probe(name: str, seed: int, warm: int) -> int:
    *_, workdir, seconds = setup(name, seed, warm)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))
    return 0


def check(workload, inputs, indices, outputs) -> int:
    """Compare each job's answer with its reference; returns the number of
    wrong or failed jobs.  ``outputs[k]`` is None for a job that raised."""
    refs = {}
    failed = 0
    for i, out in zip(indices, outputs):
        if out is None:
            failed += 1
            continue
        if i not in refs:
            refs[i] = workload.reference(inputs[i])
        if workload.answer(out) != refs[i]:
            failed += 1
    return failed


def run_job(workload, job):
    try:
        return workload.run(job)
    except Exception as exc:  # a failed job is counted, the loop goes on
        print(f"job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def end_to_end(workload, inputs, jobs, seconds: float):
    """Closed loop over distinct jobs for ``seconds`` of wall time.  The
    host reference task runs after every job, outside the job's time.
    Returns (attempted, failed, host-adjusted metrics, raw metrics)."""
    outputs, times, refs = [], [], []
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        job = jobs[len(times) % len(jobs)]
        t0 = time.perf_counter()
        outputs.append(run_job(workload, job))
        times.append(time.perf_counter() - t0)
        refs.append(hostref.time_reference())
    indices = [i % len(jobs) for i in range(len(times))]
    failed = check(workload, inputs, indices, outputs)

    def job_metrics(seconds_per_job):
        ms = [t * 1000 for t in seconds_per_job]
        return {
            "jobs_per_s": (len(ms) - failed) / sum(seconds_per_job),
            "job_ms_p50": statistics.median(ms),
            "job_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        }

    raw = job_metrics(times)
    raw["reference_ms_p50"] = statistics.median(refs) * 1000
    return len(times), failed, job_metrics(hostref.adjust(times, refs)), raw


def traced(wl_mod, workload, inputs, jobs, seconds: float):
    """Alternate untraced and traced passes over the first trace_block jobs
    until ``seconds`` have passed (at least one pass of each)."""
    block = jobs[:workload.trace_block]
    tracer = Tracer()
    plain_pass, traced_pass = [], []
    job_seconds = 0.0
    outputs = []
    start = time.perf_counter()
    while not traced_pass or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outputs += [run_job(workload, job) for job in block]
        plain_pass.append(time.perf_counter() - t0)

        tracer.install(wl_mod.LAYERS)
        try:
            t0 = time.perf_counter()
            for job in block:
                out, dt = tracer.run_job(run_job, workload, job)
                job_seconds += dt
                outputs.append(out)
            traced_pass.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    indices = list(range(len(block))) * (2 * len(traced_pass))
    failed = check(workload, inputs, indices, outputs)

    # Divide, never multiply by a rounded reciprocal: the exact quotient of
    # a total by the job count is the same whatever the number of passes.
    jobs_traced = len(traced_pass) * len(block)
    stats = tracer.stats
    metrics = {}
    for name in LAYER_METRICS:
        span, field = name.rsplit(".", 1)
        st = stats.get(span)
        if st is None:
            value = 0.0
        elif field == "self_ms":
            value = st.self_s * 1000
        elif field == "calls":
            value = st.calls
        else:
            value = st.counters.get(field, 0)
        metrics[name] = value / jobs_traced
    counting = stats.get(COUNTING)
    metrics["trace.counting_ms"] = (counting.self_s * 1000 if counting else 0.0) / jobs_traced
    metrics["trace.unattributed_ms"] = stats[ROOT_SPAN].self_s * 1000 / jobs_traced
    metrics["trace.job_ms"] = job_seconds * 1000 / jobs_traced
    metrics["trace.overhead_ratio"] = statistics.median(traced_pass) / statistics.median(plain_pass)
    return len(outputs), failed, metrics, sorted(set(tracer.absent))


def source_digest() -> str:
    """sha256 over the package sources, to identify the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "indpoly").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="add 1 to every oracle or kernel answer (checks the checker)")
    p.add_argument("--setup-probe", type=int, metavar="WARM", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(args.workload, args.seed, args.setup_probe)

    wl_mod, workload, inputs, jobs, workdir, _ = setup(args.workload, args.seed)
    raw, absent = {}, []
    try:
        if not args.trace:
            setup_raw, setup_adjusted = measure_setup(args.workload, args.seed)
        undo = workload.corrupt() if args.corrupt else []
        try:
            if args.trace:
                attempted, failed, metrics, absent = traced(
                    wl_mod, workload, inputs, jobs, args.seconds)
                units = {**LAYER_METRICS, **TRACE_METRICS}
            else:
                attempted, failed, metrics, raw = end_to_end(
                    workload, inputs, jobs, args.seconds)
                metrics["setup_s"] = statistics.median(setup_adjusted)
                raw["setup_s"] = statistics.median(setup_raw)
                metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
                units = END_TO_END
        finally:
            restore(undo)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's files are still there

    import numpy

    provenance = {
        "workload": workload.name,
        "inputs": workload.inputs,
        "loop": "closed, one caller",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "input_sha256": workload.digest(inputs),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "failed_ratio": failed / attempted,
        "raw": raw,
        "absent_layers": absent,
    }
    print(json.dumps(provenance, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
