import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import tauthom
from tauthom import cli, complexes, tautness
from tauthom.cli import build_parser, main
from tauthom.complexes import FreeComplex
from tauthom.groups import GroupMap, PresentedGroup
from tauthom.limits import Telescope, Tower
from tauthom.matrices import IntMatrix
from tauthom.tautness import NeighborhoodTower, SubspaceData, solenoid_tower

Z = PresentedGroup(1, ())
Z4 = PresentedGroup(0, (4,))
Z8 = PresentedGroup(0, (8,))
Z_TOWER = Tower.periodic(GroupMap.identity(Z)).to_json()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def tower_file(tmp_path):
    doubling = GroupMap(Z, Z, IntMatrix.from_rows([[2]]))
    return write_json(tmp_path, "tower.json", Tower.periodic(doubling).to_json())


@pytest.fixture
def dyadic_file(tmp_path):
    doubling = GroupMap(Z, Z, IntMatrix.from_rows([[2]]))
    return write_json(tmp_path, "tel.json", Telescope.periodic(doubling).to_json())


class TestVerbs:
    def test_snf_text_and_json(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          IntMatrix.from_rows([[2, 4], [6, 8]]).to_json())
        code, out, _ = run_cli(capsys, "snf", "--input", path)
        assert code == 0 and "divisors: [2, 4]" in out
        code, out, _ = run_cli(capsys, "snf", "--input", path, "--format", "json")
        assert code == 0 and json.loads(out)["divisors"] == [2, 4]

    def test_group_from_string(self, capsys):
        code, out, _ = run_cli(capsys, "group", "--coefficients", "Z/6+Z/4")
        assert code == 0
        assert "Z/2 + Z/12" in out

    def test_group_from_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", Z4.to_json())
        code, out, _ = run_cli(capsys, "group", "--input", path)
        assert code == 0 and "Z/4" in out

    @pytest.mark.parametrize("source", ["string", "file"])
    def test_group_with_huge_free_rank(self, capsys, tmp_path, source):
        # the free rank is never expanded into a list of 10^12 zeros
        if source == "string":
            argv = ("--coefficients", "Z^1000000000000")
        else:
            argv = ("--input", write_json(tmp_path, "g.json",
                                          {"free": 1000000000000, "torsion": []}))
        code, out, _ = run_cli(capsys, "group", *argv)
        assert code == 0 and "group: Z^1000000000000\n" in out

    def test_homology_preset_integral(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "--preset", "rp2-6vertex")
        assert code == 0
        assert "H_0: Z" in out and "H_2: Z/2" in out

    def test_homology_with_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "--preset", "rp2-6vertex",
                               "--coefficients", "Z/4")
        assert code == 0
        assert "H_1: Z/2" in out and "H_2: Z/2" in out

    def test_homology_chain_input(self, capsys, tmp_path):
        d1 = IntMatrix.from_rows([[1, 1], [-1, -1]])
        cx = FreeComplex("chain", 0, 1, [2, 2], {1: d1})
        path = write_json(tmp_path, "cx.json", cx.to_json())
        code, out, _ = run_cli(capsys, "homology", "--input", path)
        assert code == 0 and "H_1: Z" in out

    def test_uct_ext_term_fragment(self, capsys):
        code, out, _ = run_cli(capsys, "uct", "--preset", "rp2-6vertex",
                               "--coefficients", "Z", "--degree", "1",
                               "--format", "text")
        assert code == 0
        assert "Ext-term: Z/2" in out
        assert "split: verified" in out

    def test_uct_all_degrees_json(self, capsys):
        code, out, _ = run_cli(capsys, "uct", "--preset", "rp2-6vertex",
                               "--coefficients", "Z/12", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["degrees"]["1"]["middle"] == "Z/2"

    def test_lim_tower(self, capsys, tower_file):
        code, out, _ = run_cli(capsys, "lim", "--input", tower_file)
        assert code == 0
        assert "lim: 0" in out
        assert "lim1: nonzero (uncountable)" in out
        assert "lim2: 0" in out

    def test_colim_dyadic(self, capsys, dyadic_file):
        code, out, _ = run_cli(capsys, "colim", "--input", dyadic_file)
        assert code == 0 and "Z[1/2]" in out

    def test_sixterm_finite(self, capsys, tmp_path):
        t = Telescope((Z4, Z8), (GroupMap(Z4, Z8, IntMatrix.from_rows([[2]])),))
        path = write_json(tmp_path, "fin.json", t.to_json())
        code, out, _ = run_cli(capsys, "sixterm", "--input", path)
        assert code == 0 and "isomorphism" in out

    def test_sixterm_dyadic_classified(self, capsys, dyadic_file):
        code, out, _ = run_cli(capsys, "sixterm", "--input", dyadic_file)
        assert code == 0 and "nonzero (uncountable)" in out

    def test_kolmogoroff_preset(self, capsys):
        code, out, _ = run_cli(capsys, "kolmogoroff", "--preset", "octahedron",
                               "--coefficients", "Z/2")
        assert code == 0
        assert "H_2: Z/2" in out and "pipelines agree" in out

    def test_kolmogoroff_input_with_partition(self, capsys, tmp_path):
        model = {"atoms": 6, "nerve": [[i, (i + 1) % 6] for i in range(6)]}
        obj = {"model": model, "partition": [[0, 1], [2, 3], [4, 5]]}
        path = write_json(tmp_path, "circle.json", obj)
        code, out, _ = run_cli(capsys, "kolmogoroff", "--input", path)
        assert code == 0 and "H_1: Z" in out and "3 blocks" in out

    def test_nerve_counts(self, capsys):
        code, out, _ = run_cli(capsys, "nerve", "--preset", "arc-circle:4")
        assert code == 0 and "simplex counts: [4, 4]" in out

    def test_tautness_solenoid(self, capsys):
        code, out, _ = run_cli(capsys, "tautness", "--preset", "solenoid:2",
                               "--degree", "1")
        assert code == 0
        assert "junction agreement: yes" in out

    def test_tautness_trivial_preset(self, capsys):
        for n in ("0", "1", "2"):
            code, out, _ = run_cli(capsys, "tautness", "--preset", "trivial-taut",
                                   "--degree", n)
            assert code == 0 and "Verified" in out

    @pytest.mark.parametrize("degree", [0, 1])
    def test_tautness_classifies_each_term_once(self, capsys, monkeypatch, degree):
        # both reports come from one extension: lim1 runs for H_{n+1} and for
        # the Hom tower, every other step once
        calls = Counter()
        for name in ("lim", "lim1", "hom_tower", "_stage_uct_consistency"):
            def counted(*args, _name=name, _real=getattr(tautness, name)):
                stage = _name == "_stage_uct_consistency"
                calls[("stage check", args[1]) if stage else _name] += 1
                return _real(*args)
            monkeypatch.setattr(tautness, name, counted)
        code, _, _ = run_cli(capsys, "tautness", "--preset", "solenoid:2",
                             "--degree", str(degree), "--format", "json")
        assert code == 0
        assert calls == {"lim": 1, "lim1": 2, "hom_tower": 1,
                         ("stage check", degree): 1, ("stage check", degree + 1): 1}

    def test_milnor_solenoid_fragment(self, capsys):
        code, out, _ = run_cli(capsys, "milnor", "--preset", "solenoid:2",
                               "--degree", "0", "--reduced")
        assert code == 0
        assert "lim1: nonzero (uncountable)" in out
        assert "middle: nonzero (uncountable)" in out


class TestExitCodes:
    def test_milnor_failed_junction_is_one(self, capsys, tmp_path):
        data = solenoid_tower(2)
        sub = SubspaceData(Z, (GroupMap.identity(Z),))
        bad = NeighborhoodTower(data.homology, data.cohomology, {0: sub})
        path = write_json(tmp_path, "bad.json", bad.to_json())
        code, out, _ = run_cli(capsys, "milnor", "--input", path, "--degree", "0")
        assert code == 1
        assert "Failed" in out

    def test_tautness_contradiction_is_one(self, capsys, tmp_path):
        data = solenoid_tower(2)
        sub = SubspaceData(Z, (GroupMap.identity(Z),))
        bad = NeighborhoodTower(data.homology, data.cohomology, {0: sub})
        path = write_json(tmp_path, "bad.json", bad.to_json())
        code, _, err = run_cli(capsys, "tautness", "--input", path, "--degree", "0")
        assert code == 1
        assert "check failed" in err

    def test_malformed_json_is_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "snf", "--input", str(path))
        assert code == 2 and "invalid input" in err

    @pytest.mark.parametrize("verb", ["snf", "lim"])
    def test_deeply_nested_json_is_two(self, capsys, tmp_path, verb):
        # the decoder gives up on the nesting; that is bad input, not a fault
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, out, err = run_cli(capsys, verb, "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: ")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_report_with_huge_integers_is_zero(self, capsys, tmp_path, fmt):
        # every entry has at most 3 914 digits, under the interpreter's limit
        # on int-to-str conversion, but the transforms of the form exceed it
        b = 2 ** 13000
        rows = [[b + 1, b, 3], [b, b - 1, 5], [7, b + 3, b]]
        path = write_json(tmp_path, "m.json", IntMatrix.from_rows(rows).to_json())
        code, out, err = run_cli(capsys, "snf", "--input", path, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            lift = getattr(sys, "set_int_max_str_digits", None)
            saved = sys.get_int_max_str_digits() if lift else None
            if lift:
                lift(0)
            try:
                report = json.loads(out)
            finally:
                if lift:
                    lift(saved)
            u, v, d = (IntMatrix.from_json(report[k]) for k in "uvd")
            assert u * IntMatrix.from_rows(rows) * v == d

    def test_huge_input_entry_is_two(self, capsys, tmp_path):
        # parsing keeps the interpreter's limit on the digits of an int
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[%s]]}' % ("9" * 5000),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "snf", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: ")

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "snf", "--input", str(tmp_path / "no.json"))
        assert code == 2 and "invalid input" in err

    def test_unknown_preset_is_two(self, capsys):
        code, _, err = run_cli(capsys, "kolmogoroff", "--preset", "torus")
        assert code == 2 and "invalid input" in err

    @pytest.mark.parametrize("coefficients", ["Z/2", "Z^2", "Z+Z/4"])
    def test_tautness_preset_with_other_coefficients_is_two(self, capsys, coefficients):
        # the presets carry integral homology, so a non-Z request does not fit them
        code, out, err = run_cli(capsys, "tautness", "--preset", "solenoid:3",
                                 "--coefficients", coefficients, "--degree", "0")
        assert code == 2 and out == ""
        assert "invalid input" in err and "--coefficients" in err

    def test_tautness_preset_with_z_coefficients_runs(self, capsys):
        code, out, _ = run_cli(capsys, "tautness", "--preset", "solenoid:3",
                               "--coefficients", "Z", "--degree", "0")
        assert code == 0 and "junction agreement: yes" in out

    def test_missing_degree_is_two(self, capsys):
        code, _, err = run_cli(capsys, "tautness", "--preset", "solenoid:2")
        assert code == 2 and "--degree" in err

    @pytest.mark.parametrize("argv", [
        ["homology"], ["homology", "--coefficients", "Z/2"], ["uct"], ["kolmogoroff"]],
        ids=["homology", "homology-coefficients", "uct", "kolmogoroff"])
    @pytest.mark.parametrize("degree", ["7", "-1"])
    def test_degree_out_of_range_is_two(self, capsys, argv, degree):
        code, out, err = run_cli(capsys, *argv, "--preset", "rp2-6vertex", "--degree", degree)
        assert (code, out) == (2, "")
        assert err == "invalid input: degree %s outside [0, 2]\n" % degree

    @pytest.mark.parametrize("argv", [
        ["homology", "--preset", "octahedron"], ["uct", "--preset", "octahedron"],
        ["sixterm"], ["kolmogoroff", "--preset", "octahedron"],
        ["tautness", "--preset", "solenoid:2", "--degree", "0"]],
        ids=["homology", "uct", "sixterm", "kolmogoroff", "tautness"])
    def test_empty_coefficients_is_two(self, capsys, dyadic_file, argv):
        # an empty expression is rejected as by the group verb, not read as Z
        if argv == ["sixterm"]:
            argv = argv + ["--input", dyadic_file]
        code, out, err = run_cli(capsys, *argv, "--coefficients", "")
        assert (code, out) == (2, "")
        assert err == "invalid input: empty group expression (at position 0)\n"

    def test_bad_coefficient_string_is_two(self, capsys):
        code, _, err = run_cli(capsys, "group", "--coefficients", "Q/3")
        assert code == 2

    def test_signed_exponent_is_two(self, capsys):
        code, _, err = run_cli(capsys, "group", "--coefficients", "Z^+1")
        assert code == 2 and "'Z^+1'" in err

    def test_superscript_exponent_is_two(self, capsys):
        code, _, err = run_cli(capsys, "group", "--coefficients", "Z^\u00b2")
        assert code == 2 and "'Z^\u00b2' (at position 0)" in err

    def test_missing_input_is_two(self, capsys):
        code, _, err = run_cli(capsys, "lim")
        assert code == 2 and "--input" in err

    def test_wrong_shape_input_is_two(self, capsys, tmp_path):
        path = write_json(tmp_path, "notatower.json", {"divisors": [1, 2]})
        code, _, err = run_cli(capsys, "lim", "--input", path)
        assert code == 2

    def test_coefficients_on_chain_complex_is_two(self, capsys, tmp_path):
        d1 = IntMatrix.from_rows([[1, 1], [-1, -1]])
        cx = FreeComplex("chain", 0, 1, [2, 2], {1: d1})
        path = write_json(tmp_path, "cx.json", cx.to_json())
        code, out, err = run_cli(capsys, "homology", "--input", path,
                                 "--coefficients", "Z/2")
        assert (code, out) == (2, "")
        # the one check and message of CoefficientComplex, as for uct
        assert err == "invalid input: coefficient complexes are built from cochain complexes\n"

    @pytest.mark.parametrize("degree", [[], ["--degree", "0"]], ids=["all", "one"])
    def test_uct_of_chain_complex_is_two(self, capsys, tmp_path, degree):
        # certificates need the cochain direction, as coefficient complexes do
        obj = {"direction": "chain", "lo": 0, "hi": 1, "ranks": [1, 1], "diffs": {"1": [[2]]}}
        path = write_json(tmp_path, "cx.json", obj)
        code, out, err = run_cli(capsys, "uct", "--input", path, *degree)
        assert (code, out) == (2, "")
        assert err == "invalid input: coefficient complexes are built from cochain complexes\n"

    @pytest.mark.parametrize("verb", ["colim", "sixterm"])
    def test_malformed_telescope_is_two(self, capsys, tmp_path, verb):
        # two prefix stages need one connecting map
        obj = {"prefix": {"groups": [Z.to_json(), Z4.to_json()], "maps": []}}
        path = write_json(tmp_path, "tel.json", obj)
        code, _, err = run_cli(capsys, verb, "--input", path)
        assert code == 2 and "invalid input" in err and "prefix maps" in err

    @pytest.mark.parametrize("verb, obj, field", [
        ("group", {"free": -1, "torsion": []}, "'free'"),
        ("group", {"free": 1.5, "torsion": []}, "'free'"),
        ("group", {"free": 1, "torsion": [0]}, "'torsion'"),
        ("snf", [[1.9, 0]], "entry [0][0]"),
        ("snf", [[1, True]], "entry [0][1]"),
        ("snf", {"rows": 1, "cols": 1, "entries": [["2"]]}, "entry [0][0]"),
        ("snf", {"rows": 1.9, "cols": 1, "entries": [[4]]}, "'rows'"),
        ("snf", {"rows": 1, "cols": True, "entries": [[4]]}, "'cols'"),
        ("kolmogoroff", {"atoms": 2, "nerve": [[0, 1.9]]}, "got 1.9"),
        ("kolmogoroff", {"model": {"atoms": 3, "nerve": []},
                         "partition": [["2"], [0], [1]]}, "got '2'"),
        ("kolmogoroff", {"atoms": True, "nerve": []}, "got True"),
        ("homology", {"direction": "cochain", "lo": 0.9, "hi": 1, "ranks": [1, True],
                      "diffs": {}}, "got 0.9"),
        ("homology", {"direction": "cochain", "lo": 0, "hi": 1, "ranks": [1, True],
                      "diffs": {}}, "got True"),
        ("homology", {"direction": "chain", "lo": 0, "hi": 1, "ranks": [1, 1],
                      "diffs": {"\u0661": [[0]]}}, "got '\u0661'"),
        # int() would read these tower degree keys as 0 and 1
        ("milnor", {"homology": {"0_0": Z_TOWER}}, "got '0_0'"),
        ("milnor", {"homology": {"0": Z_TOWER, "\u0661": Z_TOWER}}, "got '\u0661'"),
        ("milnor", {"homology": {"1": Z_TOWER}, "cohomology": {" 1": Z_TOWER}}, "got ' 1'"),
        ("milnor", {"homology": {"1": Z_TOWER}, "A": {"+1": {}}}, "got '+1'"),
        # a string would be read as one-character group names, an object as
        # an empty list of maps
        ("lim", {"prefix": {"groups": "Z", "maps": {}}}, "prefix groups data must be a JSON"),
        ("lim", {"prefix": {"groups": ["Z"], "maps": {}}}, "prefix maps data must be a JSON"),
        ("colim", {"prefix": {"groups": "Z"}}, "prefix groups data must be a JSON array"),
        ("colim", {"prefix": {"groups": ["Z", "Z"], "maps": "[[1]]"}}, "prefix maps data"),
        ("sixterm", {"prefix": {"groups": {"Z": 1}}}, "prefix groups data must be a JSON array"),
        ("sixterm", {"prefix": {"groups": ["Z"], "maps": 0}}, "prefix maps data"),
    ])
    def test_invalid_json_number_is_two(self, capsys, tmp_path, verb, obj, field):
        path = write_json(tmp_path, "in.json", obj)
        code, _, err = run_cli(capsys, verb, "--input", path)
        assert code == 2 and "invalid input" in err and field in err

    @pytest.mark.parametrize("verb, obj, what", [
        ("lim", [], "tower"),
        ("colim", [], "telescope"),
        ("sixterm", [], "telescope"),
        ("homology", [], "complex"),
        ("uct", [], "complex"),
        ("milnor", [], "neighborhood tower"),
        ("lim", {"prefix": []}, "prefix"),
        ("homology", {"direction": "chain", "lo": 0, "hi": 0, "ranks": [1], "diffs": []},
         "differential"),
        ("milnor", {"homology": []}, "homology"),
        ("milnor", {"homology": {"0": Z_TOWER}, "A": []}, "A"),
        ("milnor", {"A": {"0": []}}, "A"),
        ("lim", {"tail": []}, "tail"),
        ("kolmogoroff", {"model": []}, "model"),
        ("kolmogoroff", [], "model"),
    ])
    def test_non_object_json_is_two(self, capsys, tmp_path, verb, obj, what):
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run_cli(capsys, verb, "--input", path, "--degree", "0")
        assert code == 2 and out == ""
        assert err == "invalid input: %s data must be a JSON object, got list\n" % what

    @pytest.mark.parametrize("order", [("1", "01"), ("01", "1")])
    def test_leading_zero_degree_key_is_two(self, capsys, tmp_path, order):
        # "1" and "01" would name one degree, and the later key would win
        triple = Tower.periodic(GroupMap(Z, Z, IntMatrix.from_rows([[3]]))).to_json()
        homology = {"0": Z_TOWER}
        for key in order:
            homology[key] = triple if key == "1" else Z_TOWER
        path = write_json(tmp_path, "in.json", {"homology": homology})
        code, out, err = run_cli(capsys, "milnor", "--input", path, "--degree", "0")
        assert code == 2 and out == ""
        assert err == "invalid input: homology degrees must be integers, got '01'\n"

    @pytest.mark.parametrize("verb, obj, message", [
        ("milnor", {"homology": {"-0": Z_TOWER}}, "homology degrees must be integers, got '-0'"),
        ("milnor", {"homology": {"1": Z_TOWER}, "cohomology": {"01": Z_TOWER}},
         "cohomology degrees must be integers, got '01'"),
        ("milnor", {"homology": {"1": Z_TOWER}, "A": {"-01": {}}},
         "A degrees must be integers, got '-01'"),
        ("homology", {"direction": "chain", "lo": 0, "hi": 1, "ranks": [1, 1],
                      "diffs": {"1": [[2]], "01": [[0]]}},
         "differential degrees must be integers, got '01'"),
    ])
    def test_non_canonical_degree_key_is_two(self, capsys, tmp_path, verb, obj, message):
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run_cli(capsys, verb, "--input", path, "--degree", "0")
        assert code == 2 and out == ""
        assert err == "invalid input: %s\n" % message

    def test_unknown_verb_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestDeterminism:
    def test_reused_parser_matches_fresh_processes(self, capsys):
        # main builds its parser once per process; two verbs in a row and a
        # bad --format after them read exactly as in a fresh interpreter
        runs = [("group", "--coefficients", "Z/6+Z/4", "--format", "json"),
                ("kolmogoroff", "--preset", "arc-circle:5", "--coefficients", "Z/2"),
                ("nerve", "--preset", "octahedron", "--format", "yaml")]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tauthom.__file__)))
        cli._parser.cache_clear()
        for argv in runs:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "tauthom.cli", *argv],
                                   env=env, capture_output=True, text=True)
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 2 and "invalid choice: 'yaml'" in captured.err
        assert cli._parser.cache_info().misses == 1

    def test_json_reports_byte_identical(self, capsys, tower_file):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "lim", "--input", tower_file,
                                   "--format", "json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        json.loads(outs[0])

    def test_json_reports_build_no_text_lines(self, capsys, monkeypatch, tower_file):
        argvs = [("lim", "--input", tower_file),
                 ("tautness", "--preset", "solenoid:2", "--degree", "1"),
                 ("milnor", "--preset", "solenoid:2", "--degree", "1")]
        want = [run_cli(capsys, *argv, "--format", "json") for argv in argvs]

        def built(*args):
            raise AssertionError("text lines built")
        monkeypatch.setattr(cli, "_outcome_lines", built)
        monkeypatch.setattr(cli, "_report_lines", built)
        assert [run_cli(capsys, *argv, "--format", "json") for argv in argvs] == want
        assert run_cli(capsys, *argvs[0], "--format", "text") == \
            (1, "", "check failed: text lines built\n")

    def test_uct_runs_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "uct", "--preset", "octahedron",
                                "--coefficients", "Z+Z/4", "--format", "json")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_uct_degree_builds_that_degree_only(self, capsys, monkeypatch):
        _, full, _ = run_cli(capsys, "uct", "--preset", "rp2-6vertex",
                             "--coefficients", "Z+Z/4", "--format", "json")
        built = []
        certificate = complexes.CoefficientComplex.certificate
        monkeypatch.setattr(complexes.CoefficientComplex, "certificate",
                            lambda suite, n: built.append(n) or certificate(suite, n))
        _, one, _ = run_cli(capsys, "uct", "--preset", "rp2-6vertex",
                            "--coefficients", "Z+Z/4", "--format", "json", "--degree", "1")
        assert built == [1]
        full, one = json.loads(full), json.loads(one)
        assert one == {**full, "degrees": {"1": full["degrees"]["1"]}}

    def test_kmax_flag_is_rejected(self, capsys, tower_file):
        with pytest.raises(SystemExit) as exc:
            main(["lim", "--input", tower_file, "--kmax", "16"])
        assert exc.value.code == 2
        assert "--kmax" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [(["snf", "--seed", "3"], "--seed"),
                                             (["proptest"], "proptest")])
    def test_proptest_and_seed_are_rejected(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_default_format_is_text(self):
        args = build_parser().parse_args(["snf"])
        assert args.format == "text"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 300, 2 ** 300)
    | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(st.integers(), max_size=6)
                   | st.tuples(inner, inner) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4)),
    max_leaves=24)


@given(JSON_VALUES)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_json_writer_matches_the_standard_encoder(obj):
    # nested dicts and lists, negative and bignum ints, non-ASCII text,
    # bools, None and empty containers come out as json.dumps writes them
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
