"""Smoke runs of the experiment scripts under ``scripts/`` at small sizes."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, shown", [
    ("solenoid_report", ["--degrees", "2"], ""),
    ("homology_survey", ["--models", "arc-circle:4", "--coefficients", "Z",
                         "--chains", "2"], ""),
    ("scaling_ladder", ["--arcs", "6", "--tori", "3", "--dense", "6", "--repeat", "1"],
     "det_bits"),
    ("scaling_ladder", ["--arcs", "6", "--tori", "3", "--dense", "--repeat", "1", "--uct"],
     "Z+Z/4_s"),
])
def test_script_main_exits_zero(capsys, name, argv, shown):
    assert load_script(name).main(argv) == 0
    out = capsys.readouterr().out
    assert out and shown in out


def test_scaling_ladder_dense_columns(capsys):
    # the time of the identity checks stands beside that of the two forms
    argv = ["--arcs", "--tori", "--dense", "6", "--repeat", "1"]
    assert load_script("scaling_ladder").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("dense"))
    assert header.split() == ["dense", "snf_s", "hermite_s", "check_s", "U_bits", "V_bits",
                              "det_bits"]
    assert len(lines[-1].split()) == 7


def test_scaling_ladder_builds_a_nerve_per_run(monkeypatch, capsys):
    # the nerve memo lives on the model, so each timed run gets a fresh
    # model and builds its own nerve: three rungs, two runs each
    import tauthom.kolmogoroff as kolmogoroff
    built = []
    nerve_complex = kolmogoroff.NerveComplex

    def counting(model, partition):
        built.append(model)
        return nerve_complex(model, partition)

    monkeypatch.setattr(kolmogoroff, "NerveComplex", counting)
    argv = ["--arcs", "6", "--tori", "3", "--dense", "--repeat", "2"]
    assert load_script("scaling_ladder").main(argv) == 0
    assert capsys.readouterr().out
    assert len(built) == 6 and len({id(m) for m in built}) == 6


def test_readme_commands_run_from_the_root():
    # every script command of the README, run as written from the
    # repository root, gets as far as its argument parser
    root = SCRIPTS.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    commands = re.findall(r"^\* `PYTHONPATH=(\S+) python3 (scripts/\w+\.py)`", readme, re.M)
    assert sorted(script for _, script in commands) == [
        "scripts/homology_survey.py", "scripts/scaling_ladder.py", "scripts/solenoid_report.py"]
    for path, script in commands:
        done = subprocess.run([sys.executable, script, "--help"], cwd=root, capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path), text=True)
        assert done.returncode == 0 and done.stdout.startswith("usage:"), done.stderr
