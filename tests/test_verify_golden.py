"""Every suite at the default grid reproduces the benchmark's golden report.

Each report is hashed as ``perfbench/run.py::suite_digests`` hashes it: the
report object without ``wall_time``, serialised with sorted keys and compact
separators, then sha256.  ``perfbench/golden.json`` is only read here, so a
change that alters any report fails this test before the benchmark runs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qpair.verify import VerifyConfig, run_suite

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


@pytest.mark.parametrize("suite", ["jtp", "q-gauss", "qdiff-R", "qdiff-Rtilde", "corollaries",
                                   "htilde-identities", "gf-paths", "bailey",
                                   "series-vs-enum", "four-way", "four-way-even"])
def test_series_suite_report_matches_golden(suite):
    expected = json.loads(GOLDEN.read_text())["verify-default"]["suites"][suite]
    body = {k: v for k, v in run_suite(suite, VerifyConfig()).to_obj().items() if k != "wall_time"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == expected
