"""Golden outputs of the tautness, Milnor, lim, colim, six-term and
universal-coefficient reports.

Each case runs the command line (or ``scripts/solenoid_report.py``) and
compares the sha256 of its exit code, stdout and stderr with the digest
recorded in ``golden_reports.json``. The JSON inputs live in the same file
under ``fixtures``, so a case never depends on how the library would build
them today: a ``tower-`` fixture is read by ``lim``, a ``telescope-``
fixture by ``colim`` and by ``sixterm`` over each of ``SIXTERM_COEFFICIENTS``,
a ``complex-`` fixture, a cochain complex, by ``uct`` over each of
``UCT_COEFFICIENTS`` (as are the ``UCT_PRESETS``), and every other fixture, a
neighborhood tower, by ``tautness`` and ``milnor``. After a deliberate change
of output, re-record the digests of all six verbs from the stored fixtures with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from tauthom.cli import main
from test_scripts import load_script

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")
PRESETS = [(p, r) for p in ("solenoid:2", "solenoid:3", "solenoid:5")
           for r in ((), ("--reduced",))] + [("trivial-taut", ())]
SIXTERM_COEFFICIENTS = ("Z/12", "Z+Z/4")
UCT_PRESETS = ("rp2-6vertex", "octahedron")
UCT_COEFFICIENTS = ("Z", "Z/2", "Z/12", "Z+Z/4")


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _write_fixtures(folder):
    for name, obj in _golden()["fixtures"].items():
        with open(os.path.join(folder, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def cases():
    """Case name -> (runner, argv); fixture argvs name the fixture, not a path."""
    fixtures = sorted(_golden()["fixtures"])
    towers = [name for name in fixtures if name.startswith("tower-")]
    telescopes = [name for name in fixtures if name.startswith("telescope-")]
    complexes = [name for name in fixtures if name.startswith("complex-")]
    sources = [("--preset", name) + extra for name, extra in PRESETS]
    sources += [("--input", name) for name in fixtures
                if name not in towers + telescopes + complexes]
    runs = [(verb,) + source + ("--degree", str(n))
            for verb in ("tautness", "milnor") for source in sources for n in (0, 1, 2)]
    runs += [("lim", "--input", name) for name in towers]
    for name in telescopes:
        runs.append(("colim", "--input", name))
        runs += [("sixterm", "--input", name, "--coefficients", g)
                 for g in SIXTERM_COEFFICIENTS]
    cochains = [("--preset", name) for name in UCT_PRESETS]
    cochains += [("--input", name) for name in complexes]
    runs += [("uct",) + source + ("--coefficients", g)
             for source in cochains for g in UCT_COEFFICIENTS]
    out = {}
    for run in runs:
        for fmt in ("text", "json"):
            argv = run + ("--format", fmt)
            out[" ".join(argv)] = ("cli", argv)
    for extra in ((), ("--reduced",)):
        out[" ".join(("solenoid_report",) + extra)] = ("solenoid_report", extra)
    return out


def digest(runner, argv, folder):
    """sha256 of (exit code, stdout, stderr) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if runner == "cli":
            code = main([os.path.join(folder, a + ".json") if prev == "--input" else a
                         for prev, a in zip(("",) + argv, argv)])
        else:
            code = load_script(runner).main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fixture_folder(tmp_path_factory):
    folder = str(tmp_path_factory.mktemp("golden"))
    _write_fixtures(folder)
    return folder


@pytest.fixture(scope="module")
def recorded():
    return _golden()["digests"]


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_recorded_digest(name, fixture_folder, recorded):
    runner, argv = cases()[name]
    assert digest(runner, argv, fixture_folder) == recorded[name]


def test_json_reports_match_the_standard_encoder(fixture_folder, monkeypatch):
    # the command line writes each JSON report as json.dumps(obj, indent=2,
    # sort_keys=True) would
    from tauthom import cli
    write, reports = cli._json_text, []
    monkeypatch.setattr(cli, "_json_text", lambda obj: reports.append(obj) or write(obj))
    runs = [argv for runner, argv in cases().values() if runner == "cli" and argv[-1] == "json"]
    for argv in runs:
        digest("cli", argv, fixture_folder)
    # only tautness on the contradiction fixture stops without a report
    assert len(reports) == len(runs) - 1
    for obj in reports:
        assert write(obj) == json.dumps(obj, indent=2, sort_keys=True)


def record():
    golden = _golden()
    with tempfile.TemporaryDirectory() as folder:
        _write_fixtures(folder)
        golden["digests"] = {name: digest(runner, argv, folder)
                             for name, (runner, argv) in sorted(cases().items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
