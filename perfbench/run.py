"""Benchmark of forge's time to an exact verdict.

Usage (from the repository root):

    python3 perfbench/run.py --workload finite --seed 1 --seconds 25 --trace 0

Each workload is a list of real `forge` CLI jobs run one after another
(a closed loop with one client), every job a fresh Python process with
`--format json`.  Every report is checked against an independent answer
(perfbench/oracle.py).  With --trace 0 the run measures the end-to-end
metrics, times in reference seconds (see spawner.py); with --trace 1 it
runs the jobs in one process under the per-layer tracer instead.  The
last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

# Set-up is sampled at least SETUP_REPEATS times, and more (up to
# SETUP_MAX_REPEATS) while the samples add up to less than SETUP_MIN_S,
# so that a workload with a cheap set-up still gets a steady median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_S = 3.0
# Every time is a median over at least MIN_PASSES passes, so that one
# pass slowed by other load on a shared machine does not move it.
MIN_PASSES = 3
JOB_TIMEOUT_S = 60
TRACE_TIMEOUT_S = 150
CHILD_ENV = {
    "PYTHONPATH": SRC,
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = (
    ("wall_s", "s"),
    ("slowest_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Fatal(Exception):
    """The benchmark cannot run here (missing program or dependency)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(CHILD_ENV)
    return env


@dataclass
class Run:
    seconds: float  # wall time from spawn to exit
    reference_seconds: float  # the same at the reference speed (spawner.py)
    rss_mb: float  # peak RSS of the child
    code: int
    stderr: str
    timed_out: bool


class Spawner:
    """The helper process (spawner.py) that starts every child and
    reports its wall time, its time at the reference speed and its peak
    RSS."""

    def __init__(self):
        argv = [sys.executable, os.path.join(HERE, "spawner.py")]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True
        )

    def run(self, argv, cwd, out_path, timeout) -> Run:
        """Run one child to completion."""
        err_path = out_path + ".err"
        request = {"argv": argv, "cwd": cwd, "env": child_env(), "out": out_path, "err": err_path, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Run(reply["seconds"], reply["reference_seconds"], reply["rss_mb"], reply["code"], stderr, reply["timed_out"])

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def judge(job, code, out_path, stderr, timed_out) -> list:
    """Problems with one job's outcome; empty when it is right."""
    problems = []
    if timed_out:
        return [f"timed out after {JOB_TIMEOUT_S} s"]
    if "Traceback" in (stderr or ""):
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    try:
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"no JSON report ({exc})"]
    try:
        want_code, wrong = job.check(report)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return problems + [f"report does not have the expected shape: {exc!r}"]
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    return problems + wrong


def forge_argv(job, seed) -> list:
    return [sys.executable, "-m", "forge.cli", "--format", "json", "--seed", str(seed), *job.argv]


def setup_sample(spawner, jobs, workdir) -> tuple:
    """One set-up sample: seconds to start Python, import forge.cli and
    build the job's inputs, summed over the jobs; and the probe runs.
    One probe times the start and import alone; a second one times each
    distinct build after its import.  Jobs with the same inputs share a
    build, weighted by their count."""
    builds: dict = {}
    for job in jobs:
        key = json.dumps([job.cwd or ROOT, job.build])
        builds[key] = builds.get(key, 0) + 1
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    bare = spawner.run(probe + ["[]"], ROOT, os.path.join(workdir, "setup-import.txt"), JOB_TIMEOUT_S)
    items = "[" + ",".join(builds) + "]"
    out = os.path.join(workdir, "setup-builds.txt")
    built = spawner.run(probe + [items], ROOT, out, JOB_TIMEOUT_S)
    runs = [bare, built]
    if any(r.code != 0 or r.timed_out for r in runs):
        return None, runs
    with open(out, encoding="utf-8") as fh:
        seconds = json.load(fh)
    build_s = sum(n * t for n, t in zip(builds.values(), seconds)) * built.reference_seconds / built.seconds
    return len(jobs) * bare.reference_seconds + build_s, runs


def percentile_note(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 90, 50):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"p{p:g}={q:.4f}"
    return f"max={max(values):.4f} (too few samples for a tail percentile)"


def measure(spawner, jobs, seconds, seed, workdir) -> dict:
    setups, failures = [], []
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        total, runs = setup_sample(spawner, jobs, workdir)
        if total is None:
            failures += [f"set-up failed: {r.stderr.strip()[-300:]}" for r in runs if r.code != 0 or r.timed_out]
            break
        setups.append(total)
    setup_failures = len(failures)
    raw_walls, walls, job_times, peak_rss, any_timeout = [], [], {j.name: [] for j in jobs}, 0.0, False
    while True:
        passno = len(walls)
        outcomes = []
        for idx, job in enumerate(jobs):
            out = os.path.join(workdir, f"pass{passno}-{idx}.json")
            outcomes.append((job, out, spawner.run(forge_argv(job, seed), job.cwd or ROOT, out, JOB_TIMEOUT_S)))
        raw_walls.append(sum(run.seconds for _, _, run in outcomes))
        walls.append(sum(run.reference_seconds for _, _, run in outcomes))
        for job, out, run in outcomes:
            job_times[job.name].append(run.reference_seconds)
            peak_rss = max(peak_rss, run.rss_mb)
            any_timeout |= run.timed_out
            problems = judge(job, run.code, out, run.stderr, run.timed_out)
            if problems:
                failures.append(f"pass {passno} {job.name}: " + "; ".join(problems))
        # Stop when another pass would overrun the budget.
        if any_timeout or (len(raw_walls) >= MIN_PASSES and sum(raw_walls) + raw_walls[-1] > seconds):
            break
    # The slowest job is the one with the largest median over passes.
    slowest = max(job_times.values(), key=statistics.median)
    attempted = len(walls) * len(jobs) + setup_failures
    failed = len(failures)
    every_job = [t for times in job_times.values() for t in times]
    print(f"passes={len(walls)} jobs/pass={len(jobs)} attempted={attempted} failed={failed}")
    print(f"times in reference seconds; wall pass times: {', '.join(f'{w:.3f}' for w in raw_walls)} s")
    metrics = {"peak_rss_mb": peak_rss}
    for key, values, what in (
        ("wall_s", walls, "passes"),
        ("slowest_job_s", slowest, "runs of the slowest job"),
        ("setup_s", setups or [0.0], "set-ups"),
    ):
        metrics[key] = statistics.median(values)
        print(f"{key:14s} {metrics[key]:10.4f} s      median of {len(values)} {what}; {percentile_note(values)}")
    print(f"peak_rss_mb    {peak_rss:10.2f} MB     max over {len(every_job)} job processes")
    print(f"failed_share   {failed / attempted:10.4f} ratio  {failed} of {attempted}")
    print(f"job times: n={len(every_job)}; {percentile_note(every_job)}")
    for name, times in job_times.items():
        print(f"  {name:24s} median {statistics.median(times):8.4f} s  max {max(times):8.4f} s")
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def traced(spawner, jobs, seed, workdir, workload) -> dict:
    outdir = os.path.join(workdir, "reports")
    os.makedirs(outdir)
    plan = {
        "jobs": [{"name": j.name, "argv": ["--seed", str(seed), *j.argv], "cwd": j.cwd or ROOT} for j in jobs],
        "outdir": outdir,
        "result": os.path.join(workdir, "trace-result.json"),
        "spans": os.path.join(WORK, f"trace-{workload}.json"),
    }
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    log = os.path.join(workdir, "trace.log")
    argv = [sys.executable, os.path.join(HERE, "trace_run.py"), plan_path]
    run = spawner.run(argv, ROOT, log, TRACE_TIMEOUT_S)
    if run.code != 0 or run.timed_out:
        raise RuntimeError(f"traced run failed (exit {run.code}): {run.stderr.strip()[-2000:]}")
    with open(plan["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    failures = []
    for job, outcome in zip(jobs, result["outcomes"]):
        problems = judge(job, outcome["code"], outcome["out"], outcome["error"], False)
        if problems:
            failures.append(f"{job.name}: " + "; ".join(problems))
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    print(
        f"traced in-process pass: {result['traced_s']:.3f} s, {result['wrapped_calls']} wrapped calls "
        f"at {result['per_call_s'] * 1e9:.0f} ns of tracing each"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"spans written to {os.path.relpath(plan['spans'], ROOT)}")
    return {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": result["metrics"],
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "forge"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "forge", "cli.py")):
        raise Fatal(f"forge sources not found under {os.path.relpath(SRC)}; run from a full checkout")
    try:
        import numpy

        import inputs
        import workloads
    except ImportError as exc:
        raise Fatal(f"missing dependency: {exc}") from exc
    if args.workload not in workloads.WORKLOADS:
        raise Fatal(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    spawner = Spawner()
    try:
        data = inputs.generate(args.workload, args.seed, os.path.join(workdir, "inputs"))
        jobs = workloads.build(args.workload, data, args.seed)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit(),
            "forge_source_sha256": source_digest(),
        }
        print("meta " + json.dumps(meta, sort_keys=True))
        if args.trace:
            result = traced(spawner, jobs, args.seed, workdir, args.workload)
        else:
            result = measure(spawner, jobs, args.seconds, args.seed, workdir)
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
