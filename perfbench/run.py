"""Benchmark of ``qpair verify``: fresh-process runs on three fixed grids.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 25 --trace 0

Each workload is one ``qpair verify`` call through the ``qpair.cli`` entry
point, run in a fresh interpreter so every ``lru_cache`` starts cold, as it
does for a user.  The loop is closed, with one client: one child process at a
time, started only after the previous one has exited.  The seed only permutes
the order of the ``--suite`` flags; the program receives nothing else from it.

``--trace 0`` reports the end-to-end metrics: ``norm_wall_s`` (median over
the runs that fit in ``--seconds``), ``peak_rss_mb`` (highest over them),
``setup_s`` (median time from spawning an interpreter until
``import qpair.cli`` has finished) and ``check_pass_ratio``.  Both times are
normalised by :mod:`speedprobe` to a reference core speed, because the raw
wall time of the same run moves by ±25 % with the phases of a shared host;
each raw wall time is logged beside it.  ``--trace 1`` runs the workload
once untraced and once under :mod:`tracer`, and reports the per-layer metrics
with the tracing overhead.  Every run's verify output is compared with
``golden.json``; a crash, a non-zero exit, a timeout or a mismatch counts
every check of that run as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the run (source digest, Python version, CPU count, seed, load).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from speedprobe import normalise

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
TRACER_PATH = os.path.join(BENCH_DIR, "tracer.py")

ALL_SUITES = (
    "qdiff-R", "qdiff-Rtilde", "htilde-identities", "series-vs-enum", "four-way",
    "four-way-even", "gf-paths", "q-gauss", "jtp", "bailey", "corollaries",
)
K_FLAGS = ("-k", "2", "-k", "3", "-k", "4")

# Why each grid: verify-default is the command users and CI run and the only
# one where suites share the pairs_of/symbols_of caches and bailey rebuilds
# the four-way count tables; series-stretch spends ~90 % of its time in the
# series kernel and hyperg and enumerates no objects; enum-stretch is pure
# enumeration, predicates and count tables with no series calls, so a change
# to one half of the code shows on one stretch grid and not on the other.
# BENCHMARK.json lists verify-default and enum-stretch only: the peak RSS of
# series-stretch is 22.5 or 27.5 MB depending on whether gf-paths runs last,
# which no single run can average out.  It stays here for traced runs.
WORKLOADS = {
    "verify-default": (ALL_SUITES, ("--cutoff", "12", "--n-max", "10") + K_FLAGS),
    "series-stretch": (
        ("qdiff-R", "qdiff-Rtilde", "htilde-identities", "gf-paths", "q-gauss", "jtp"),
        ("--cutoff", "18", "--n-max", "10") + K_FLAGS,
    ),
    "enum-stretch": (("four-way", "four-way-even"), ("--cutoff", "12", "--n-max", "12") + K_FLAGS),
}

# Set-up is timed in two batches, before and after the workload runs, so
# that its median spans the run rather than one moment of a noisy host.
SETUP_SPAWNS = 10
SETUP_TIMEOUT_S = 10.0
# Every child must be reaped this long after the benchmark starts, so that a
# hang counts as a failure and the whole run still ends within 180 s.
DEADLINE_S = 150.0

# How often the speed probe samples the core: every 10 ms over a verify call,
# and every 2 ms over the ~0.15 s import, so that it gets dozens of samples.
VERIFY_PROBE_INTERVAL_S = 0.01
SETUP_PROBE_INTERVAL_S = 0.002

# A fresh interpreter running ``qpair verify`` from the checkout's sources.
# It refuses to run a qpair imported from anywhere else, times ``main`` under
# a speed probe and writes that timing as JSON to the file descriptor it is
# given.  Arguments: benchmark directory, sources, descriptor, verify argv.
VERIFY_CODE = (
    "import json, os, sys, time\n"
    "bench, src, fd = sys.argv[1:4]\n"
    "sys.path.insert(0, src)\n"
    "sys.path.append(bench)\n"
    "import qpair.cli, speedprobe\n"
    "if not qpair.cli.__file__.startswith(src):\n"
    "    sys.exit('qpair imported from ' + qpair.cli.__file__)\n"
    f"probe = speedprobe.SpeedProbe({VERIFY_PROBE_INTERVAL_S})\n"
    "start = time.perf_counter()\n"
    "probe.start()\n"
    "code = qpair.cli.main(sys.argv[4:])\n"
    "mean = probe.stop()\n"
    "main_s = time.perf_counter() - start\n"
    "os.write(int(fd), json.dumps({'main_s': main_s, 'probe_mean_s': mean,\n"
    "                              'probe_samples': probe.samples}).encode())\n"
    "sys.exit(code)\n"
)
# Prints when ``import qpair.cli`` finished and the mean probe time over it.
# Arguments: benchmark directory, sources.
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.append(sys.argv[1])\n"
    "import speedprobe\n"
    f"probe = speedprobe.SpeedProbe({SETUP_PROBE_INTERVAL_S})\n"
    "probe.start()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import qpair.cli\n"
    "done = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "print(repr(done), repr(probe.stop()))\n"
)


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so a child's reading can be
    # compared with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def verify_argv(workload: str, seed: int, reverse: bool = False) -> list[str]:
    """``qpair verify`` arguments for a workload, suites in seed order."""
    suites, flags = WORKLOADS[workload]
    order = list(suites)
    random.Random(seed).shuffle(order)
    if reverse:
        order.reverse()
    argv = ["verify", *flags]
    for name in order:
        argv += ["--suite", name]
    return argv


def find_sources(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qpair", "cli.py")):
        raise FileNotFoundError(f"no qpair sources under {src}")
    return src


# ------------------------------------------------------------------ children


class ChildResult(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None when the child was killed at its deadline
    stdout: bytes


def run_child(argv: list[str], timeout_s: float, pass_fds: tuple[int, ...] = ()) -> ChildResult:
    """Run one child to completion; wall time is spawn to exit.

    Peak RSS comes from ``wait4`` on this child alone: ``RUSAGE_CHILDREN``
    is a running maximum over every earlier child.  The child stays a
    zombie (``WNOWAIT``) until the kill timer is disarmed, so the timer can
    never signal a recycled pid.
    """
    lock = threading.Lock()
    state = {"done": False, "killed": False}

    def kill():
        with lock:
            if not state["done"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    start = monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, pass_fds=pass_fds)
    timer = threading.Timer(max(timeout_s, 0.0), kill)
    timer.start()
    try:
        out = proc.stdout.read()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = monotonic() - start
    except BaseException:
        kill()
        raise
    finally:
        with lock:
            state["done"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    code = None if state["killed"] else proc.returncode
    return ChildResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, out)


class VerifyRun(NamedTuple):
    child: ChildResult
    # Normalised time of ``qpair.cli.main``; the raw wall time when the child
    # reported no timing, in which case it also fails the output check.
    norm_s: float
    timing: dict | None  # what the child reported: main_s, probe_mean_s, probe_samples


def run_verify(src: str, verify_args: list[str], timeout_s: float) -> VerifyRun:
    """One fresh-process ``qpair verify`` call, timed under a speed probe."""
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as report_pipe:
        try:
            child = run_child([sys.executable, "-c", VERIFY_CODE, BENCH_DIR, src, str(write_fd),
                               *verify_args], timeout_s, pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        report = report_pipe.read()
    try:
        timing = json.loads(report)
        norm = normalise(timing["main_s"], timing["probe_mean_s"])
    except (ValueError, KeyError, TypeError):
        timing, norm = None, child.wall_s
    return VerifyRun(child, norm, timing)


def time_setup(src: str) -> list[float]:
    """Normalised times from spawning an interpreter until ``import qpair.cli`` is done."""
    argv = [sys.executable, "-c", IMPORT_CODE, BENCH_DIR, src]
    times = []
    for _ in range(SETUP_SPAWNS):
        start = monotonic()
        done = subprocess.run(argv, stdout=subprocess.PIPE, check=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        finished, mean_probe = (float(word) for word in done.stdout.split())
        times.append(normalise(finished - start, mean_probe))
    return times


# ------------------------------------------------------------------ output check


def suite_digests(payload: dict) -> dict[str, str]:
    """sha256 of each suite's report with ``wall_time`` removed, keyed by suite."""
    out = {}
    for report in payload["reports"]:
        body = {k: v for k, v in report.items() if k != "wall_time"}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        out[report["suite"]] = hashlib.sha256(text.encode()).hexdigest()
    return out


def summarize(exit_code: int | None, stdout: bytes) -> dict | None:
    """The golden-comparable summary of one verify run, or None if unparsable."""
    try:
        payload = json.loads(stdout)
        return {
            "exit": exit_code,
            "ok": payload["ok"],
            "checks_run": sum(r["checks_run"] for r in payload["reports"]),
            "suites": suite_digests(payload),
        }
    except (ValueError, KeyError, TypeError):
        return None


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def matches(golden: dict, exit_code: int | None, stdout: bytes) -> bool:
    return summarize(exit_code, stdout) == golden


# ------------------------------------------------------------------ runs


def run_record(root: str, src: str, seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(src, "qpair")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def log(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def end_to_end(src: str, workload: str, seed: int, seconds: int, golden: dict, deadline: float):
    start = monotonic()
    # The first spawn writes the bytecode caches, as an installed package has.
    subprocess.run([sys.executable, "-c", IMPORT_CODE, BENCH_DIR, src], stdout=subprocess.DEVNULL,
                   check=True, timeout=SETUP_TIMEOUT_S)
    setup = time_setup(src)
    checks = golden["checks_run"]
    norms, rss = [], []
    attempted = failed = 0
    while True:
        # Peak RSS depends on suite order: on series-stretch it is ~5 MB lower
        # when gf-paths runs last.  Runs alternate between the seed's order
        # and its reverse, so the highest of two runs is never that case.
        argv = verify_argv(workload, seed, reverse=len(norms) % 2 == 1)
        log({"run": len(norms) + 1, "loadavg": os.getloadavg()})
        verify_run = run_verify(src, argv, deadline - monotonic())
        child = verify_run.child
        good = matches(golden, child.exit_code, child.stdout)
        attempted += checks
        failed += 0 if good else checks
        norms.append(verify_run.norm_s)
        rss.append(child.peak_rss_mb)
        log({"run": len(norms), "wall_s": child.wall_s, "cpu_s": child.cpu_s,
             "norm_wall_s": verify_run.norm_s, "timing": verify_run.timing,
             "peak_rss_mb": child.peak_rss_mb,
             "exit": child.exit_code, "matches_golden": good})
        # Start another run only if it should end within --seconds.
        if child.exit_code is None or monotonic() - start + child.wall_s > seconds:
            break
    setup += time_setup(src)
    log({"samples": len(norms)})
    metrics = {
        "norm_wall_s": (statistics.median(norms), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "check_pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


def traced(src: str, workload: str, seed: int, golden: dict, deadline: float):
    verify = verify_argv(workload, seed)
    checks = golden["checks_run"]
    log({"run": "untraced", "loadavg": os.getloadavg()})
    plain = run_verify(src, verify, deadline - monotonic()).child
    log({"run": "traced", "loadavg": os.getloadavg()})
    child = run_child([sys.executable, TRACER_PATH, src, *verify], deadline - monotonic())
    try:
        result = json.loads(child.stdout.splitlines()[-1])
    except (ValueError, IndexError):
        result = None
    good_plain = matches(golden, plain.exit_code, plain.stdout)
    good_traced = (result is not None and child.exit_code == 0
                   and matches(golden, result["exit"], result["stdout"].encode()))
    failed = (0 if good_plain else checks) + (0 if good_traced else checks)
    metrics = {name: tuple(pair) for name, pair in result["metrics"].items()} if good_traced else {}
    metrics["trace.wall_s"] = (child.wall_s, "s")
    metrics["trace.untraced_wall_s"] = (plain.wall_s, "s")
    metrics["trace.overhead_s"] = (child.wall_s - plain.wall_s, "s")
    return 2 * checks, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    try:
        src = find_sources(root)
        golden = load_golden()[args.workload]
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log({"record": run_record(root, src, args.seed)})
    if args.trace:
        attempted, failed, metrics = traced(src, args.workload, args.seed, golden, deadline)
    else:
        attempted, failed, metrics = end_to_end(src, args.workload, args.seed, args.seconds,
                                                golden, deadline)
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
