"""Smoke test of ``scripts/ab_epochs.py`` on two copies of one tree."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_epochs_reports_each_epoch_and_ordered_ratio_quartiles(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_epochs.py"), "--a", str(ROOT),
         "--b", str(copy), "--n", "64", "--epochs", "4"],
        stdout=subprocess.PIPE, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[:2] == ["n=64 views=2 epochs=4", "epoch\ta_ms\tb_ms\tb_over_a"]
    rows = [line.split("\t") for line in lines[2:]]
    assert [row[0] for row in rows[:4]] == ["1", "2", "3", "4"]
    for _, a_ms, b_ms, ratio in rows[:4]:
        assert float(a_ms) > 0.0 and float(b_ms) > 0.0 and float(ratio) > 0.0
    summary = dict(rows[4:])
    assert list(summary) == ["ratio_median", "ratio_q1", "ratio_q3"]
    q1, median, q3 = (float(summary[k]) for k in ("ratio_q1", "ratio_median", "ratio_q3"))
    assert all(map(math.isfinite, (q1, median, q3)))
    assert 0.0 < q1 <= median <= q3


def test_ab_epochs_names_a_tree_without_mvgc(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_epochs.py"), "--a", str(ROOT),
         "--b", str(tmp_path), "--n", "64", "--epochs", "4"],
        stderr=subprocess.PIPE, text=True, check=False, timeout=60,
    )
    assert done.returncode == 2
    assert f"{tmp_path} holds no src/mvgc" in done.stderr
