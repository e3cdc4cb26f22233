"""In-process traced run of one workload's jobs.

Usage: python3 trace_run.py <plan.json>

The plan lists the jobs ({"name", "argv", "cwd"}), the directory for
their reports, and the files to write.  Every job runs once under the
tracer through forge's click entry point in this process, with `--out`
set so that its report can be checked afterwards.
"""

import json
import os
import sys
import time
import traceback

from tracer import Tracer


def run_jobs(jobs, outdir, tracer, invoke):
    """Each job through the tracer; returns the pass time and outcomes."""
    results = []
    start = time.perf_counter()
    for idx, job in enumerate(jobs):
        out = os.path.join(outdir, f"job-{idx}.json")
        os.chdir(job["cwd"])
        code, error = 0, None
        try:
            tracer.run_job(invoke, ["--format", "json", "--out", out, *job["argv"]])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a crash is a failed job, reported with its traceback
            code, error = 1, traceback.format_exc()
        results.append({"code": code, "out": out, "error": error})
    return time.perf_counter() - start, results


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import forge.cli

    def invoke(args):
        forge.cli.main.main(args=args, prog_name="forge", standalone_mode=False)

    home = os.getcwd()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, outcomes = run_jobs(plan["jobs"], plan["outdir"], tracer, invoke)
    finally:
        tracer.uninstall()
        os.chdir(home)
    with open(plan["spans"], "w", encoding="utf-8") as fh:
        json.dump({"jobs": [j["name"] for j in plan["jobs"]], "spans": tracer.spans_jsonable()}, fh)
    per_call = Tracer.calibrate()
    result = {
        "traced_s": traced_s,
        "outcomes": outcomes,
        "wrapped_calls": tracer.wrapped_calls(),
        "per_call_s": per_call,
        "metrics": tracer.metrics(per_call * tracer.wrapped_calls()),
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
