"""Tests of the benchmark itself (not of zxwkit).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("evaluate.calls", "evaluate.nodes_in", "evaluate.max_nodes",
          "rules.fusion_nodes_in", "rules.fusion_nodes_out",
          "rules.rewrite_steps", "graph.compose_seq_calls")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def test_smoke_emits_every_metric_and_rejects_a_wrong_target():
    proc = _bench("--smoke")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_traced_counts_repeat_and_self_times_add_up():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "controlled_dense", "--seed", "3",
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        assert "# traced_outputs: bit-identical to untraced" in proc.stdout
        runs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    for name in COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    m = runs[0]
    parts = sum(v["value"] for k, v in m.items()
                if v["unit"] == "s" and k != "trace.request_s")
    assert abs(parts - m["trace.request_s"]["value"]) < 1e-6


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "controlled_dense", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
