"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps layer functions by name (``_paths_up_to``,
``is_ki_admissible``, ``series_R``, ...) and raises when one is missing, so a
rename would otherwise surface only at the next traced benchmark run.  This
runs it once on a tiny grid and checks that it emits every per-layer metric
``BENCHMARK.json`` declares, apart from the ``trace.*`` timings that
``perfbench/run.py`` adds around it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_emits_every_declared_layer_metric():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(ROOT / "src"),
         "verify", "-k", "2", "--n-max", "3", "--cutoff", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout.strip().splitlines()[-1])
    assert payload["exit"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared
               if not m["name"].startswith("trace.") and m["name"] not in payload["metrics"]]
    assert missing == []
