"""Every suite reproduces the benchmark's golden report on its grid.

Each report is hashed as ``perfbench/run.py::suite_digests`` hashes it: the
report object without ``wall_time``, serialised with sorted keys and compact
separators, then sha256.  ``perfbench/golden.json`` is only read here, so a
change that alters any report fails this test before the benchmark runs.
The default grid pins every suite; the enumeration stretch grid (``n_max``
12) pins the four-way suites at the weights the default grid does not reach.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qpair.verify import VerifyConfig, run_suite

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
ENUM_STRETCH = VerifyConfig(k_values=(2, 3, 4), cutoff=12, n_max=12)


def _digest(suite: str, cfg: VerifyConfig) -> str:
    body = {k: v for k, v in run_suite(suite, cfg).to_obj().items() if k != "wall_time"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite", ["jtp", "q-gauss", "qdiff-R", "qdiff-Rtilde", "corollaries",
                                   "htilde-identities", "gf-paths", "bailey",
                                   "series-vs-enum", "four-way", "four-way-even"])
def test_series_suite_report_matches_golden(suite):
    expected = json.loads(GOLDEN.read_text())["verify-default"]["suites"][suite]
    assert _digest(suite, VerifyConfig()) == expected


@pytest.mark.parametrize("suite", ["four-way", "four-way-even"])
def test_enum_stretch_report_matches_golden(suite):
    expected = json.loads(GOLDEN.read_text())["enum-stretch"]["suites"][suite]
    assert _digest(suite, ENUM_STRETCH) == expected
