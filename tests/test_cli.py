import hashlib
import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "qpair.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, input=stdin, env=env
    )


def row_objs(*parts):
    return [{"size": abs(p), "over": p < 0} for p in parts]


class TestSeriesCommand:
    def test_origin_coefficient(self):
        r = run("series", "--family", "R", "-k", "2", "-i", "2", "--cutoff", "8")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        first = [t for t in obj["terms"] if t["q"] == 0]
        assert first == [{"a": 0, "b": 0, "x": 0, "q": 0, "re": 1, "im": 0}]

    def test_deterministic_output(self):
        args = ("series", "--family", "R", "-k", "2", "-i", "1", "--cutoff", "8")
        assert run(*args).stdout == run(*args).stdout

    def test_matches_library(self):
        from qpair.hyperg import series_R_tilde

        r = run("series", "--family", "Rtilde", "-k", "3", "-i", "2", "--cutoff", "10")
        from qpair.series import TruncatedSeries

        assert TruncatedSeries.from_obj(json.loads(r.stdout)) == series_R_tilde(3, 2, 10)

    def test_specialization_flags(self):
        r = run("series", "--family", "bilateral-Rtilde", "-k", "3", "-i", "2",
                "--cutoff", "8", "--sub-a", "i", "--sub-b=-i")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert all(t["a"] == 0 and t["b"] == 0 for t in obj["terms"])

    def test_bad_params_exit_2(self):
        r = run("series", "--family", "R", "-k", "2", "-i", "5", "--cutoff", "6")
        assert r.returncode == 2
        assert "error" in r.stderr


class TestEnumerateCommand:
    def test_weight_zero_table(self):
        r = run("enumerate", "--family", "B", "-k", "2", "-i", "2", "-n", "0")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["entries"] == [{"s": 0, "t": 0, "n": 0, "re": 1, "im": 0}]

    def test_csv_format(self):
        r = run("enumerate", "--family", "C", "-k", "2", "-i", "1", "-n", "2", "--format", "csv")
        assert r.stdout.splitlines()[0] == "s,t,n,re,im"

    def test_bound_exceeded_exit_3(self):
        r = run("enumerate", "--family", "E", "-k", "5", "-i", "3", "-n", "115")
        assert r.returncode == 3
        assert "bound 14" in r.stderr

    def test_env_bound_override(self):
        r = run("enumerate", "--family", "pairs", "-n", "15", "--mode", "objects",
                env_extra={"QPAIR_BOUND": "15"})
        assert r.returncode == 0

    def test_object_count_matches_enumeration(self):
        from qpair.overpartitions import pairs_of

        r = run("enumerate", "--family", "pairs", "-n", "3", "--mode", "objects")
        assert len(json.loads(r.stdout)["objects"]) == len(pairs_of(3))

    GOLDEN = [
        ("pairs", 0, 1, "1c026d5f39fe1798"),
        ("pairs", 1, 4, "77dd0eb285ce212f"),
        ("pairs", 2, 12, "86fbc94ba3961635"),
        ("pairs", 3, 32, "361f3f9b457c353f"),
        ("symbols", 0, 1, "477325a0b102f935"),
        ("symbols", 1, 4, "c25404b99b83501c"),
        ("symbols", 2, 12, "1be4e66281fc3b71"),
        ("symbols", 3, 32, "bbf6343c3a8eec6e"),
        ("paths", 0, 1, "b229cad790be47ec"),
        ("paths", 1, 4, "dc3023f2cef2ec1c"),
        ("paths", 2, 8, "7d188755d2389884"),
        ("paths", 3, 20, "47b3105f3a723a44"),
    ]

    @pytest.mark.parametrize("family,n,count,digest", GOLDEN)
    def test_golden_listings(self, family, n, count, digest):
        extra = ["-k", "2", "-i", "2"] if family == "paths" else []
        r = run("enumerate", "--family", family, *extra, "-n", str(n), "--mode", "objects")
        assert len(json.loads(r.stdout)["objects"]) == count
        assert hashlib.sha256(r.stdout.encode()).hexdigest()[:16] == digest


class TestBijectCommand:
    FIG3_PATH = {
        "start_height": 2,
        "steps": "SE SE NE NE SW SE NE NE NE S NE NE SE SE SE NE SE NE NE S SE SE E NE NE SW NE SE NE NE S SE SE".split(),
        "marks": [
            {"peak": 0, "mark": "ab"}, {"peak": 1, "mark": "a"}, {"peak": 2, "mark": "one"},
            {"peak": 3, "mark": "one"}, {"peak": 4, "mark": "b"}, {"peak": 5, "mark": "ab"},
            {"peak": 6, "mark": "one"}, {"peak": 7, "mark": "b"},
        ],
    }
    FIG3_SYMBOL = {
        "top": row_objs(14, -12, 12, 8, -7, -4, -3, 2),
        "bottom": row_objs(-9, -8, 8, -7, -5, -4, 3, 1),
    }

    def test_worked_path_to_symbol(self):
        r = run("biject", "--map", "path-to-symbol", "-k", "5", "-i", "3",
                stdin=json.dumps(self.FIG3_PATH))
        assert r.returncode == 0
        assert json.loads(r.stdout) == self.FIG3_SYMBOL

    def test_round_trip(self):
        r = run("biject", "--map", "symbol-to-path", "-k", "5", "-i", "3",
                stdin=json.dumps(self.FIG3_SYMBOL))
        back = run("biject", "--map", "path-to-symbol", "-k", "5", "-i", "3", stdin=r.stdout)
        assert json.loads(back.stdout) == self.FIG3_SYMBOL

    def test_worked_k_conjugate(self):
        pi = {
            "top": row_objs(12, 12, -8, 7, 6, -3, 2, -1),
            "bottom": row_objs(14, 12, -10, -8, 6, 5, -3, 2),
        }
        pi4 = {
            "top": row_objs(11, 9, -7, 7, 6, -3, 2, -1),
            "bottom": row_objs(15, 15, -11, -8, 6, 5, -3, 2),
        }
        r = run("biject", "--map", "k-conjugate", "-k", "4", stdin=json.dumps(pi))
        assert json.loads(r.stdout) == pi4

    def test_joichi_stanton_round_trip(self):
        row = row_objs(12, 12, -8, 7, 6, -3, 2, -1)
        r = run("biject", "--map", "joichi-stanton", stdin=json.dumps(row))
        decomp = json.loads(r.stdout)
        assert decomp == {"associated": [9, 9, 6, 5, 4, 2, 1, 1], "marks": [7, 5, 2]}
        back = run("biject", "--map", "js-inverse", stdin=r.stdout)
        assert json.loads(back.stdout) == row

    def test_invalid_input_exit_2(self):
        bad = {"top": row_objs(5), "bottom": row_objs(0)}
        r = run("biject", "--map", "symbol-to-path", "-k", "2", "-i", "2", stdin=json.dumps(bad))
        assert r.returncode == 2
        assert "outside" in r.stderr


class TestVerifyCommand:
    def test_small_suite_passes(self):
        r = run("verify", "--suite", "q-gauss", "--cutoff", "8")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["ok"] is True
        report = payload["reports"][0]
        assert report["checks_run"] > 0 and report["failures"] == []

    def test_suite_grid_flags(self):
        r = run("verify", "--suite", "four-way", "-k", "2", "--n-max", "5")
        assert r.returncode == 0

    def test_mutation_detected(self):
        # Harness sensitivity: a corrupted rank window must fail loudly.
        r = run("verify", "--suite", "four-way", "-k", "2", "--n-max", "5",
                env_extra={"QPAIR_SELFTEST_MUTATION": "rank-interval"})
        assert r.returncode == 1
        payload = json.loads(r.stdout)
        failure = payload["reports"][0]["failures"][0]
        assert failure["identity"] == "ranks-vs-freq"
        assert failure["key"] is not None

    def test_unknown_suite_usage_error(self):
        r = run("verify", "--suite", "nonsense")
        assert r.returncode == 2


class TestUsageErrors:
    @pytest.mark.parametrize("name,value", [
        ("QPAIR_CUTOFF", "abc"), ("QPAIR_NMAX", "1.5"), ("QPAIR_KSET", "2,x"),
    ])
    def test_bad_environment_value(self, name, value):
        r = run("verify", "--suite", "jtp", env_extra={name: value})
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: {name}=") and "Traceback" not in r.stderr

    def test_bad_bound_environment_value(self):
        r = run("enumerate", "--family", "pairs", "-n", "1", env_extra={"QPAIR_BOUND": "big"})
        assert r.returncode == 2
        assert r.stderr.startswith("error: QPAIR_BOUND=")

    @pytest.mark.parametrize("args,env", [
        (("verify", "--suite", "four-way", "--n-max", "-1"), None),
        (("verify", "--suite", "four-way"), {"QPAIR_NMAX": "-1"}),
        (("verify", "--suite", "jtp", "--cutoff", "0"), None),
        (("verify", "--suite", "jtp"), {"QPAIR_CUTOFF": "0"}),
        (("series", "--family", "R", "-k", "2", "-i", "2", "--cutoff", "0"), None),
        (("enumerate", "--family", "pairs", "-n", "-1"), None),
    ])
    def test_degenerate_bound_refused(self, args, env):
        r = run(*args, env_extra=env)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "must be at least" in r.stderr
        assert r.stdout == ""


class TestExportCommand:
    def test_export_series(self, tmp_path):
        out = tmp_path / "series.json"
        r = run("export", "series", "--family", "R", "-k", "2", "-i", "2",
                "--cutoff", "6", "--out", str(out))
        assert r.returncode == 0
        direct = run("series", "--family", "R", "-k", "2", "-i", "2", "--cutoff", "6")
        assert out.read_text() == direct.stdout.strip()

    def test_export_table_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        r = run("export", "enumerate", "--family", "B", "-k", "2", "-i", "2", "-n", "3",
                "--format", "csv", "--out", str(out))
        assert r.returncode == 0
        assert out.read_text().startswith("s,t,n,re,im")
