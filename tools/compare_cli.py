"""Run the same forge CLI jobs against two source trees and report every
difference in standard output, standard error or exit code.

Usage (from the repository root):

    python3 tools/compare_cli.py OLD_SRC NEW_SRC [--jobs FILE ...]
        [--formats json tsv] [--workload NAME --seed N ...]

OLD_SRC and NEW_SRC are directories holding the `forge` package, such as
the `src` of a checkout of the parent commit and `src` of the working
tree.  Each job is a fresh `python -m forge.cli` process in the
benchmark's child environment (perfbench/run.py: hash seed 0, no
bytecode written, one BLAS thread), with PYTHONPATH set to the tree.

A jobs file holds one job per line: the arguments after `forge`, split
as by a POSIX shell, run once per format in --formats (as
`--format F <arguments>`); blank lines and lines starting with # are
skipped.  --workload runs every job of that perfbench workload exactly
as the benchmark does (its inputs generated for --seed, JSON output, the
job's working directory).  The last line printed is a summary; the exit
code is 1 when any job differs, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shlex
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py: the child environment)

TIMEOUT_S = 600


def file_jobs(path: str, formats) -> list:
    """(name, argv, cwd) of every line of a jobs file, once per format."""
    jobs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            args = shlex.split(line)
            for fmt in formats:
                jobs.append((f"{fmt}: {line}", ["--format", fmt, *args], ROOT))
    return jobs


def workload_jobs(workload: str, seed: int, workdir: str) -> list:
    """(name, argv, cwd) of every job of a perfbench workload."""
    import inputs
    import workloads

    data = inputs.generate(workload, seed, os.path.join(workdir, f"{workload}-{seed}"))
    jobs = []
    for job in workloads.build(workload, data, seed):
        argv = bench.forge_argv(job, seed)[3:]  # after `python -m forge.cli`
        jobs.append((f"{workload}:{seed}: {job.name}", argv, job.cwd or ROOT))
    return jobs


def run_job(src: str, argv, cwd: str):
    env = bench.child_env()
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "forge.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=TIMEOUT_S,
    )
    return proc.stdout, proc.stderr, proc.returncode


def describe(stream: str, old: bytes, new: bytes) -> str:
    lines = difflib.unified_diff(
        old.decode(errors="replace").splitlines(),
        new.decode(errors="replace").splitlines(),
        f"old {stream}",
        f"new {stream}",
        lineterm="",
        n=1,
    )
    return "\n".join(list(lines)[:20])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--jobs", action="append", default=[], help="A jobs file; may repeat.")
    parser.add_argument("--formats", nargs="+", default=["json"], choices=["json", "tsv"])
    parser.add_argument("--workload", action="append", default=[], help="A perfbench workload; may repeat.")
    parser.add_argument("--seed", action="append", type=int, default=[], help="Workload seed; may repeat.")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "forge", "cli.py")):
            parser.error(f"{src} holds no forge package")
    if args.workload and not args.seed:
        parser.error("--workload needs at least one --seed")

    with tempfile.TemporaryDirectory(prefix="compare_cli-") as workdir:
        jobs = [job for path in args.jobs for job in file_jobs(path, args.formats)]
        jobs += [job for w in args.workload for s in args.seed for job in workload_jobs(w, s, workdir)]
        differ = 0
        for name, job_argv, cwd in jobs:
            old = run_job(args.old_src, job_argv, cwd)
            new = run_job(args.new_src, job_argv, cwd)
            if old == new:
                continue
            differ += 1
            print(f"DIFFERS {name}")
            if old[2] != new[2]:
                print(f"  exit code {old[2]} -> {new[2]}")
            for stream, a, b in (("stdout", old[0], new[0]), ("stderr", old[1], new[1])):
                if a != b:
                    print(describe(stream, a, b))
    print(f"{len(jobs)} jobs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
