"""Every suite reproduces the benchmark's golden report on its grid.

Each report is hashed as ``perfbench/run.py::suite_digests`` hashes it: the
report object without ``wall_time``, serialised with sorted keys and compact
separators, then sha256.  ``perfbench/golden.json`` is only read here, so a
change that alters any report fails this test before the benchmark runs.
The default grid pins every suite; the enumeration stretch grid (``n_max``
12) pins the four-way suites at the weights the default grid does not reach,
and the series stretch grid (cutoff 18) the series suites at the q-degrees
it does not reach.
The narrow grid (cutoff 6, ``n_max`` 9) has ``n_max + 1`` above the cutoff,
so ``series-vs-enum`` and ``bailey`` build the series they share with a
cutoff-bound check at ``n_max + 1`` there.  Its digests are pinned here, as
recorded before those builds were shared.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qpair.verify import VerifyConfig, run_suite

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
ENUM_STRETCH = VerifyConfig(k_values=(2, 3, 4), cutoff=12, n_max=12)
SERIES_STRETCH = VerifyConfig(k_values=(2, 3, 4), cutoff=18, n_max=10)
NARROW = VerifyConfig(k_values=(2, 3), cutoff=6, n_max=9)
NARROW_DIGESTS = {
    "series-vs-enum": "a1d041573432fddd8f4173817539c5818df628b47494662e7fa67e3f519d4fc0",
    "bailey": "7e44f540decf78baec8855e401e5c32b060f18ba9a0651235742def1a8ab7e68",
    "gf-paths": "d682acd73e77d0b5ab5ab114d333082ed90c15d9f8876809e31a040d18cbe122",
    "qdiff-R": "b0c751e08b0be641fb3bef36cb4e9edd2337790e5665565a2cab612bae1c5eb1",
    "qdiff-Rtilde": "76568bb054a24ba73c9fa9ee2dc8d9c1b0c0ee2ab84452acea0d69e13212de35",
    "corollaries": "051896f53af9ff7ef5a827d569dbb765e0e7c7aa9951f2af4c918cae882bbcf2",
}


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


@pytest.mark.parametrize("suite", ["qdiff-R", "qdiff-Rtilde", "htilde-identities", "gf-paths",
                                   "q-gauss", "jtp"])
def test_series_stretch_report_matches_golden(suite):
    expected = json.loads(GOLDEN.read_text())["series-stretch"]["suites"][suite]
    assert _digest(suite, SERIES_STRETCH) == expected


@pytest.mark.parametrize("suite", sorted(NARROW_DIGESTS))
def test_narrow_cutoff_report_is_pinned(suite):
    assert _digest(suite, NARROW) == NARROW_DIGESTS[suite]
