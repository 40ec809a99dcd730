import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from qpair.cli import ENUM_FAMILIES, SERIES_FAMILIES, main
from qpair.counts import CountTable
from qpair.frobenius import FrobeniusSymbol
from qpair.paths import LatticePath

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

    def test_negative_floor_keeps_the_cutoff(self):
        # H~ at k 2, i -9 has summand floors down to q^-12; the series holds
        # every coefficient up to the requested cutoff.
        r = run("series", "--family", "Htilde", "-k", "2", "-i", "-9", "--cutoff", "12")
        assert r.returncode == 0, r.stderr
        obj = json.loads(r.stdout)
        assert (obj["q_floor"], obj["q_cutoff"]) == (-12, 12)

    def test_bad_params_exit_2(self):
        r = run("series", "--family", "R", "-k", "2", "-i", "5", "--cutoff", "6")
        assert r.returncode == 2
        assert "error" in r.stderr

    @pytest.mark.parametrize("expr,message", [
        ("i*", "bad substitution q-power ''"),
        ("q^", "bad substitution q-power 'q^'"),
        ("-i*q^", "bad substitution q-power 'q^'"),
        ("1*q^x", "bad substitution q-power 'q^x'"),
        ("i*x", "bad substitution q-power 'x'"),
        ("q*i", "bad substitution coefficient 'q'"),
        ("2*q", "bad substitution coefficient '2'"),
        ("", "bad substitution coefficient ''"),
    ])
    def test_bad_substitution_exit_2(self, expr, message, capsys):
        for flag in ("--sub-a", "--sub-b", "--sub-x"):
            argv = ["series", "--family", "R", "-k", "2", "-i", "2", "--cutoff", "4", f"{flag}={expr}"]
            assert main(argv) == 2
            printed, err = capsys.readouterr()
            assert err.startswith(f"error: {message} ") and printed == ""

    @pytest.mark.parametrize("family", sorted(SERIES_FAMILIES))
    def test_every_family_prints_its_builder(self, family, capsys):
        from qpair import hyperg

        builders = {
            "R": hyperg.series_R, "Rtilde": hyperg.series_R_tilde,
            "Htilde": hyperg.series_H_tilde, "Jtilde": hyperg.series_J_tilde,
            "bilateral-R": hyperg.series_R_bilateral,
            "bilateral-Rtilde": hyperg.series_R_tilde_bilateral,
            "multisum-D": hyperg.multisum_admissible,
            "multisum-Dtilde": hyperg.multisum_self_conjugate,
        }
        assert sorted(builders) == sorted(SERIES_FAMILIES)
        assert main(["series", "--family", family, "-k", "3", "-i", "2", "--cutoff", "6"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(json.dumps(builders[family](3, 2, 6).to_obj()))


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
        # The filtered families at k=3, i=2.
        ("B", 4, 48, "0ba32fe85d90d880"),
        ("Btilde", 4, 44, "d6c2d30fc72eddbe"),
        ("C", 4, 48, "c8960aee1e9848f5"),
        ("Ctilde", 4, 44, "ff4a591dc7e16454"),
        ("D", 4, 48, "16f96fdbef09948a"),
        ("Dtilde", 4, 44, "219014765dfbdfd5"),
        ("E", 4, 48, "f82253f3dc652dd9"),
        ("Etilde", 4, 44, "17c8f78775974941"),
    ]

    @pytest.mark.parametrize("family,n,count,digest", GOLDEN)
    def test_golden_listings(self, family, n, count, digest):
        if family in ("pairs", "symbols"):
            extra = []
        else:
            extra = ["-k", "2", "-i", "2"] if family == "paths" else ["-k", "3", "-i", "2"]
        r = run("enumerate", "--family", family, *extra, "-n", str(n), "--mode", "objects")
        assert len(json.loads(r.stdout)["objects"]) == count
        assert hashlib.sha256(r.stdout.encode()).hexdigest()[:16] == digest

    def test_paths_is_the_E_family(self, capsys):
        assert ENUM_FAMILIES["paths"] is ENUM_FAMILIES["E"]
        printed = {}
        for family in ("paths", "E"):
            args = ["enumerate", "--family", family, "-k", "2", "-i", "2", "-n", "4"]
            assert main(args + ["--mode", "objects"]) == 0
            listing = json.loads(capsys.readouterr().out)
            assert listing.pop("family") == family
            assert main(args) == 0
            printed[family] = (listing, capsys.readouterr().out)
        assert printed["paths"] == printed["E"]
        assert printed["E"][0]["objects"]

    @pytest.mark.parametrize("family", ["C", "Ctilde"])
    @pytest.mark.parametrize("k,i", [(2, 0), (2, 3), (1, 1)])
    def test_invalid_ki_listing_exit_2(self, family, k, i):
        r = run("enumerate", "--family", family, "-k", str(k), "-i", str(i), "-n", "3",
                "--mode", "objects")
        assert r.returncode == 2
        assert r.stderr.startswith("error: need k >= 2 and 1 <= i <= k") and r.stdout == ""

    @pytest.mark.parametrize("family", sorted(ENUM_FAMILIES))
    def test_listing_matches_table(self, family, capsys):
        for k in (2, 3):
            for i in range(1, k + 1):
                for n in range(6):
                    args = ["enumerate", "--family", family, "-k", str(k), "-i", str(i),
                            "-n", str(n)]
                    assert main(args + ["--mode", "objects"]) == 0
                    listed = json.loads(capsys.readouterr().out)["objects"]
                    assert main(args) == 0
                    table = CountTable(n, {(e["s"], e["t"], e["n"]): e["re"]
                                           for e in json.loads(capsys.readouterr().out)["entries"]})
                    assert len(listed) == sum(c for (_s, _t, m), c in table.entries.items() if m == n)
                    got = CountTable(n, Counter((*_stats(obj), n) for obj in listed))
                    assert got.entries == {key: c for key, c in table.entries.items()
                                           if key[2] == n}

    @pytest.mark.parametrize("family", ["B", "Btilde", "C", "Ctilde", "D", "Dtilde", "E", "Etilde"])
    def test_table_reads_the_counter(self, family, capsys, monkeypatch):
        # A family's table comes from its counter, not from tallying its
        # stream, and prints as the tally would.
        from qpair import cli, counts

        monkeypatch.setattr(cli, "tally", None)
        stream = ENUM_FAMILIES[family][0]
        for k in (2, 3):
            for i in range(1, k + 1):
                want = counts.tally(stream(k, i, 6), 6)
                args = ["enumerate", "--family", family, "-k", str(k), "-i", str(i), "-n", "6"]
                assert main(args) == 0
                assert capsys.readouterr().out == want.to_json() + "\n"
                assert main(args + ["--format", "csv"]) == 0
                assert capsys.readouterr().out == want.to_csv()


def _stats(obj) -> tuple[int, int]:
    """(s, t) of a listed object, read from its JSON form."""
    if "lam" in obj:
        lam_over = sum(p["over"] for p in obj["lam"])
        mu_plain = sum(not p["over"] for p in obj["mu"])
        return lam_over + mu_plain, len(obj["mu"])
    if "top" in obj:
        f = FrobeniusSymbol.from_obj(obj)
        return f.s_stat(), f.t_stat()
    path = LatticePath.from_obj(obj)
    return path.marked_a(), path.marked_b()


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

    def test_planted_bailey_pair_defect_fails_the_report(self, monkeypatch, capsys):
        # One extra q^9 term in E3's alpha_2 breaks the defining relation at
        # n = 2: the report records it, and the exit code is 1, not 2.
        import dataclasses

        from qpair import hyperg, verify
        from qpair.series import TruncatedSeries, mono

        def planted_e3(n_max, q_cutoff):
            pair = hyperg.bailey_pair_e3(n_max, q_cutoff)
            alphas = list(pair.alphas)
            alphas[2] = alphas[2] + TruncatedSeries.poly([mono(1, q=9)]).truncated(q_cutoff)
            return dataclasses.replace(pair, alphas=tuple(alphas))

        monkeypatch.setattr(verify, "bailey_pair_e3", planted_e3)
        assert main(["verify", "--suite", "bailey", "-k", "2", "-k", "3"]) == 1
        report = json.loads(capsys.readouterr().out)["reports"][0]
        relation = [f for f in report["failures"] if f["identity"] == "pair-relation-verified"]
        assert relation == [{"identity": "pair-relation-verified", "params": {"pair": "E3"},
                             "key": [2, 0, 0, 0, 9], "lhs": "1", "rhs": "0"}]

    def test_planted_corollary_defect_names_its_weight(self, monkeypatch, capsys):
        # One extra entry at weight 4 in the odd-modulus B side: the report
        # keys the failure by that weight and shows both entries there, once
        # against side A and once against the specialised series.  The suite
        # counts to n_max + 2 = 6.
        from qpair import overpartitions, verify

        def planted(k, n_max):
            a, b = overpartitions.overpartition_identity_sides(k, n_max)
            b[4] += 1
            return a, b

        monkeypatch.setattr(verify, "overpartition_identity_sides", planted)
        assert main(["verify", "--suite", "corollaries", "--n-max", "4"]) == 1
        report = json.loads(capsys.readouterr().out)["reports"][0]
        want = []
        for identity in ("odd-modulus-series-vs-counts", "odd-modulus-sides"):  # the report's order
            for k in (2, 3):
                a, _ = overpartitions.overpartition_identity_sides(k, 6)
                want.append({"identity": identity, "params": {"k": k},
                             "key": [4], "lhs": str(a[4]), "rhs": str(a[4] + 1)})
        assert report["failures"] == want

    def test_list_mismatch_sees_a_length_difference(self):
        from qpair.verify import list_mismatch

        assert list_mismatch([1, 2], [1, 2]) is None
        assert list_mismatch([1, 2], [1, 3]) == ((1,), 2, 3)
        assert list_mismatch([1, 2], [1, 2, 0]) == ((2,), None, 0)

    def test_no_suite_builds_a_pair(self, monkeypatch):
        # Every B, C and D table is counted without objects and every
        # corollary A side comes from a product over part sizes: a verify run
        # over all suites builds no overpartition, pair, row, symbol or path,
        # and B's rows once per (k, parity, n_max).
        from qpair import durfee, frobenius, overpartitions, paths
        from qpair.verify import SUITES, VerifyConfig, run_suite

        calls = []
        # A module holding its own name for rows_of would pass the spy, but
        # would still look rows up in its cache.
        rows_of = frobenius.rows_of
        rows_looked_up = rows_of.cache_info()

        def spy(module, name):
            fn = getattr(module, name)

            def record(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, record)

        table = overpartitions._pair_rows
        table.cache_clear()
        durfee._durfee_rows.cache_clear()
        for module, name in ((overpartitions, "overpartitions_of"), (overpartitions, "pairs_of"),
                             (frobenius, "rows_of"), (frobenius, "symbols_of"),
                             (paths, "_paths_up_to"), (overpartitions, "_pair_rows")):
            spy(module, name)
        cfg = VerifyConfig(k_values=(2, 3), cutoff=6, n_max=4)
        assert all(run_suite(name, cfg).ok for name in SUITES)
        keys = [args for name, args in calls if name == "_pair_rows"]
        assert [name for name, _ in calls if name != "_pair_rows"] == []
        assert rows_of.cache_info() == rows_looked_up
        assert len(keys) > len(set(keys)) and table.cache_info().misses == len(set(keys))

    def test_unknown_suite_usage_error(self):
        r = run("verify", "--suite", "nonsense")
        assert r.returncode == 2

    def test_deep_is_the_doubled_grid(self, capsys):
        grid = ["verify", "--suite", "q-gauss", "--suite", "four-way", "-k", "2"]
        payloads = []
        for bounds in (["--cutoff", "4", "--n-max", "3", "--deep"], ["--cutoff", "8", "--n-max", "6"]):
            assert main(grid + bounds) == 0
            payload = json.loads(capsys.readouterr().out)
            for report in payload["reports"]:
                del report["wall_time"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        assert [r["params"] for r in payloads[0]["reports"]] == [
            {"cutoff": 8}, {"k": [2], "n_max": 6}]


class TestUsageErrors:
    @pytest.mark.parametrize("name,value", [
        ("QPAIR_CUTOFF", "abc"), ("QPAIR_NMAX", "1.5"), ("QPAIR_KSET", "2,x"),
    ])
    def test_bad_environment_value(self, name, value):
        r = run("verify", "--suite", "jtp", env_extra={name: value})
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: {name}=") and "Traceback" not in r.stderr

    def test_suite_with_no_checks_at_k_refused(self):
        # four-way only runs at k in {2, 3}: an empty run is not a PASS.
        r = run("verify", "--suite", "four-way", "-k", "5", "--n-max", "3")
        assert r.returncode == 2
        assert r.stderr == "error: suite four-way runs no checks for k in [5]\n"
        assert r.stdout == ""

    @pytest.mark.parametrize("args,env,k", [
        (("-k", "0", "--suite", "qdiff-R"), None, 0),
        (("-k", "-1", "--suite", "qdiff-Rtilde"), None, -1),
        (("-k", "2", "-k", "1", "--suite", "bailey"), None, 1),
        (("--suite", "qdiff-R"), {"QPAIR_KSET": "0"}, 0),
        (("--suite", "jtp"), {"QPAIR_KSET": "3,1"}, 1),
    ])
    def test_k_below_two_refused(self, args, env, k):
        # -k 0 once reached qdiff-R and failed there with a bare "error: 1".
        r = run("verify", *args, env_extra=env)
        assert r.returncode == 2
        assert r.stderr == f"error: -k (or QPAIR_KSET) must be at least 2, got {k}\n"
        assert r.stdout == ""

    def test_bad_bound_environment_value(self):
        r = run("enumerate", "--family", "pairs", "-n", "1", env_extra={"QPAIR_BOUND": "big"})
        assert r.returncode == 2
        assert r.stderr.startswith("error: QPAIR_BOUND=")

    @pytest.mark.parametrize("args,stdin,message", [
        (("--map", "path-to-symbol"), "{}", "needs -k and -i"),
        (("--map", "symbol-to-path", "-k", "2"), "{}", "needs -i"),
        (("--map", "k-conjugate"), "{}", "needs -k"),
        (("--map", "joichi-stanton"), "[1, 2]", "cannot read its input"),
        (("--map", "js-inverse"), '{"associated": 5, "marks": []}', "cannot read its input"),
    ])
    def test_biject_usage_error(self, args, stdin, message):
        r = run("biject", *args, stdin=stdin)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and message in r.stderr
        assert "Traceback" not in r.stderr and r.stdout == ""

    @pytest.mark.parametrize("assoc,marks", [
        ([3, 1], [True]), ([3, 1], [1.7]), ([3, 1], ["1"]), (["3", 1.9], []),
    ])
    def test_js_inverse_refuses_non_integers(self, assoc, marks):
        # Each value would read as a valid int; the same row with ints is accepted.
        assert run("biject", "--map", "js-inverse",
                   stdin=json.dumps({"associated": [3, 1], "marks": [1]})).returncode == 0
        r = run("biject", "--map", "js-inverse", stdin=json.dumps({"associated": assoc, "marks": marks}))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and "must be integers" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv,good,bad", [
        (("joichi-stanton",), [{"size": 2, "over": True}], [{"size": 2, "over": "no"}]),
        (("joichi-stanton",), [{"size": 2, "over": True}], [{"size": 2, "over": 1}]),
        (("joichi-stanton",), [{"size": 2, "over": True}], [{"size": 2.9, "over": True}]),
        (("joichi-stanton",), [{"size": 1, "over": True}], [{"size": True, "over": True}]),
        (("k-conjugate", "-k", "2"),
         {"top": [{"size": 2, "over": False}], "bottom": [{"size": 0, "over": True}]},
         {"top": [{"size": 2.9, "over": False}], "bottom": [{"size": 0, "over": True}]}),
        (("symbol-to-path", "-k", "2", "-i", "1"),
         {"top": [], "bottom": []}, {"top": [{"size": "1", "over": False}], "bottom": [{"size": 0, "over": False}]}),
        (("path-to-symbol", "-k", "2", "-i", "1"),
         {"start_height": 1, "steps": ["SE"], "marks": []},
         {"start_height": True, "steps": ["SE"], "marks": []}),
        (("path-to-symbol", "-k", "2", "-i", "1"),
         {"start_height": 1, "steps": ["SE"], "marks": []},
         {"start_height": 1.0, "steps": ["SE"], "marks": []}),
    ])
    def test_biject_refuses_coerced_json(self, argv, good, bad):
        # Each bad value would read as a valid int or bool; the good input is accepted.
        assert run("biject", "--map", *argv, stdin=json.dumps(good)).returncode == 0
        r = run("biject", "--map", *argv, stdin=json.dumps(bad))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and "integer" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("peaks", [[-1], [True], [1], [0, 0]])
    def test_biject_refuses_a_bad_peak_index(self, peaks):
        path = {"start_height": 0, "steps": ["NE", "S"] * len(peaks),
                "marks": [{"peak": p, "mark": "a"} for p in peaks]}
        r = run("biject", "--map", "path-to-symbol", "-k", "2", "-i", "2", stdin=json.dumps(path))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error: mark peaks") and "Traceback" not in r.stderr

    def test_x_one_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--family", "R", "-k", "2", "-i", "1", "--cutoff", "4", "--x-one"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --x-one" in capsys.readouterr().err

    def test_bilateral_families_are_the_x_one_series(self, capsys):
        from qpair import hyperg

        for family, builder in (("bilateral-R", hyperg.series_R),
                                ("bilateral-Rtilde", hyperg.series_R_tilde)):
            assert main(["series", "--family", family, "-k", "2", "-i", "1", "--cutoff", "4"]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed == json.loads(json.dumps(builder(2, 1, 4, x_one=True).to_obj()))

    def test_contradicted_slack_refused(self, tmp_path, capsys):
        # The constant term has deg_b 0 > deg_q 0 - 3, so a slack of -3 is
        # false, and the cutoff it would give (q^8) cannot be claimed.
        base = ["--family", "R", "-k", "2", "-i", "1", "--cutoff", "5",
                "--sub-b", "q^-1", "--q-power", "2"]
        out = tmp_path / "series.json"
        for argv in (["series"] + base, ["export", "series"] + base + ["--out", str(out)]):
            assert main(argv + ["--slack-b", "-3"]) == 2
            printed, err = capsys.readouterr()
            assert err == "error: slack['b'] = -3 is contradicted by a stored term with deg_b - deg_q = 0\n"
            assert printed == ""
        assert not out.exists()
        assert main(["series"] + base + ["--slack-b", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["q_cutoff"] == 5

    def test_objects_csv_refused_before_enumeration(self):
        r = run("enumerate", "--family", "B", "-k", "1", "-i", "1", "-n", "2",
                "--mode", "objects", "--format", "csv")
        assert r.returncode == 2
        assert r.stderr == "error: objects mode only supports --format json\n"

    @pytest.mark.parametrize("args,env", [
        (("verify", "--suite", "four-way", "--n-max", "-1"), None),
        (("verify", "--suite", "four-way"), {"QPAIR_NMAX": "-1"}),
        (("verify", "--suite", "jtp", "--cutoff", "0"), None),
        (("verify", "--suite", "jtp"), {"QPAIR_CUTOFF": "0"}),
        (("series", "--family", "R", "-k", "2", "-i", "2", "--cutoff", "0"), None),
        (("enumerate", "--family", "pairs", "-n", "-1"), None),
        (("enumerate", "--family", "pairs", "-n", "0", "--bound", "-1"), None),
        (("enumerate", "--family", "pairs", "-n", "0"), {"QPAIR_BOUND": "-1"}),
    ])
    def test_degenerate_bound_refused(self, args, env):
        r = run(*args, env_extra=env)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "must be at least" in r.stderr
        assert r.stdout == ""

    def test_negative_weight_names_the_weight(self):
        # enumerate leaves -n to the shared bound check, whose message must
        # not name n_max, which is no enumerate flag.
        r = run("enumerate", "--family", "pairs", "-n", "-1")
        assert r.returncode == 2
        assert r.stderr == "error: the largest weight must be at least 0, got -1\n"


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
