"""Record ``golden.json``: the expected verify output of every workload.

Usage, from the root of a checkout::

    python3 perfbench/golden.py

For each workload this runs ``qpair verify`` once, in a fresh interpreter,
and stores its exit code, ``ok``, the total ``checks_run`` and a sha256 per
suite of the report with ``wall_time`` removed.  Record it only on a commit
whose output is trusted; ``run.py`` compares every run against it.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    src = run.find_sources(os.getcwd())
    golden = {}
    for workload in run.WORKLOADS:
        child = run.run_verify(src, run.verify_argv(workload, 0), run.DEADLINE_S).child
        summary = run.summarize(child.exit_code, child.stdout)
        if summary is None or summary["exit"] != 0 or not summary["ok"]:
            print(f"error: {workload} did not pass (exit {child.exit_code})", file=sys.stderr)
            return 1
        golden[workload] = summary
        print(f"{workload}: {summary['checks_run']} checks, {child.wall_s:.1f} s", file=sys.stderr)
    with open(run.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
