"""Self-tests of the benchmark.  From the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

They are not named ``test_*.py`` so the repository's own test run does not
collect them; the planted-defect test runs the enum-stretch workload (~25 s).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH_DIR, SRC]

import run  # noqa: E402
import speedprobe  # noqa: E402
import tracer  # noqa: E402

SMALL_GRID = ["verify", "--cutoff", "8", "--n-max", "6", "-k", "2", "-k", "3"]


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_wrapped_function_returns_identical_results():
    from qpair.hyperg import series_R

    wrapped = tracer.Tracer().wrap("hyperg.series_R", series_R)
    assert wrapped(3, 2, 10) == series_R(3, 2, 10)
    assert wrapped(2, 1, 8, x_one=True) == series_R(2, 1, 8, x_one=True)


def test_traced_verify_matches_untraced_output():
    plain_run = run.run_verify(SRC, SMALL_GRID, 120)
    plain = plain_run.child
    timing = plain_run.timing
    assert timing["probe_samples"] >= 1 and 0 < timing["main_s"] < plain.wall_s
    assert plain_run.norm_s == speedprobe.normalise(timing["main_s"], timing["probe_mean_s"])
    traced = run.run_child([sys.executable, tracer.__file__, SRC, *SMALL_GRID], 120)
    assert plain.exit_code == 0 and traced.exit_code == 0
    result = json.loads(traced.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert (run.summarize(result["exit"], result["stdout"].encode())
            == run.summarize(plain.exit_code, plain.stdout))
    names = set(result["metrics"]) | {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert names == {m["name"] for m in _contract()["per_layer"]}


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    probe = speedprobe.SpeedProbe(0.005)
    probe.start()
    end = time.monotonic() + 0.2
    while time.monotonic() < end:
        pass
    mean = probe.stop()
    assert probe.samples >= 10 and 0 < mean < 0.005
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_normalise_cancels_a_uniform_slowdown():
    ref = speedprobe.REF_PROBE_S
    assert speedprobe.normalise(10.0, ref) == 10.0
    # A core running everything 1.5 times slower stretches the wall time and
    # the probe alike.
    assert speedprobe.normalise(15.0, 1.5 * ref) == pytest.approx(10.0)


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = t.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 3.0

    t.wrap("outer", outer)()
    assert (t.calls("inner"), t.total_s("inner"), t.self_s("inner")) == (2, 4.0, 4.0)
    assert (t.calls("outer"), t.total_s("outer"), t.self_s("outer")) == (1, 8.0, 4.0)


def test_probe_time_is_charged_to_no_span():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def probe(args, kwargs, result, seconds):
        clock.now += 10.0

    inner = t.wrap("inner", lambda: setattr(clock, "now", clock.now + 1.0), probe)
    t.wrap("outer", inner)()
    assert (t.total_s("inner"), t.self_s("inner")) == (1.0, 1.0)
    assert t.self_s("outer") == 0.0


def test_missing_layer_function_fails_loudly():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import qpair.cli, qpair.durfee, tracer\n"
        "del qpair.durfee.is_ki_admissible\n"
        "tracer.LayerTrace(tracer.Tracer())\n"
    )
    done = subprocess.run([sys.executable, "-c", code, BENCH_DIR, SRC],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "durfee.is_ki_admissible is missing" in done.stderr


def test_planted_defect_fails_the_output_check():
    env = {**os.environ, "QPAIR_SELFTEST_MUTATION": "rank-interval"}
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "enum-stretch",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["check_pass_ratio"]["value"] < 1.0
    assert set(result["metrics"]) == {m["name"] for m in _contract()["end_to_end"]}


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    with pytest.raises((ValueError, IndexError)):
        _result(done.stdout)
