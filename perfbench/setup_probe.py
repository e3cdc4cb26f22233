"""Set-up probe: import forge.cli, then build inputs without any verdict.

Usage: python3 setup_probe.py '<json list of [cwd, steps] items>'

Run with an empty list, its wall time from spawn to exit is the cost of
starting Python and importing forge.cli.  Otherwise it times each item's
build (after the import) and prints the seconds as a JSON list.  Steps:
["spec", s] resolves a fixture or graph file; ["window", g, r] realizes a
radius-r window of group g; ["full", g] realizes all of a finite group.
"""

import json
import os
import sys
import time

import forge.cli  # noqa: F401  (the import is part of set-up)
from forge.cayley import parse_group_spec, realize_full, realize_window
from forge.fixtures import resolve_spec


def build(steps) -> None:
    for step in steps:
        if step[0] == "spec":
            resolve_spec(step[1])
        elif step[0] == "window":
            realize_window(parse_group_spec(step[1]), int(step[2]))
        elif step[0] == "full":
            realize_full(parse_group_spec(step[1]))
        else:
            raise SystemExit(f"unknown set-up step {step!r}")


def main(items) -> None:
    seconds = []
    for cwd, steps in items:
        os.chdir(cwd)
        start = time.perf_counter()
        build(steps)
        seconds.append(time.perf_counter() - start)
    print(json.dumps(seconds))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
