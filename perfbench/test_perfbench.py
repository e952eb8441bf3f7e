"""Tests of the benchmark itself, on the smoke size (seconds, not minutes).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = {"queries_per_s", "query_p50_ms", "query_tail_ms", "setup_s", "peak_rss_mb"}


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload,failed", [("nerve-homology", 0), ("uct-corpus", 0),
                                             ("cli-reports", 4)])
def test_smoke_round_is_checked(workload, failed):
    # --seconds 0 stops after the first whole round
    code, out = _run("--workload", workload, "--seed", "3", "--size", "smoke",
                     "--seconds", "0", "--trace", "0")
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the four undecided lim queries fail in every round, nothing else does
    assert result["failed"] == failed
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_round_reports_every_layer():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    code, out = _run("--workload", "cli-reports", "--seed", "3", "--size", "smoke",
                     "--trace", "1")
    assert code == 0
    assert "tracing overhead" in out
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == per_layer
    assert metrics["kolmogoroff.self_s"]["value"] == 0
    assert metrics["kolmogoroff.block_evals"]["value"] == 0
    assert metrics["limits.derived_s"]["value"] > 0
    assert metrics["matrices.max_transform_bits"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "uct-corpus", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_primary_forms():
    z, z2, z12 = oracles.Z, oracles.group(0, [2]), oracles.group(0, [12])
    assert z12 == (0, (3, 4))
    assert oracles.parse("Z^2 + Z/6") == (2, (2, 3))
    assert oracles.hom(oracles.group(0, [4]), z12) == (0, (4,))
    assert oracles.ext(oracles.group(1, [6]), z) == (0, (2, 3))
    assert oracles.ext(oracles.group(0, [8]), z12) == (0, (4,))
    assert oracles.tensor(oracles.group(1, [4]), z2) == (0, (2, 2))
    assert oracles.tor(oracles.group(0, [4]), z2) == (0, (2,))
    assert oracles.coprime_part(12, 3) == 4 and oracles.coprime_part(12, 0) == 1


def test_determinant_and_product():
    assert oracles.determinant([[0, 1], [1, 0]]) == -1
    assert oracles.determinant([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert oracles.matmul([[1, 2]], [[3], [4]]) == [[11]]
