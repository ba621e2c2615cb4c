"""Smoke test of ``scripts/epoch_memory.py`` at a toy scale."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_epoch_memory_reports_each_phase_and_the_epoch_peak():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "epoch_memory.py"), "--src", str(ROOT),
         "--n", "64"],
        stdout=subprocess.PIPE, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[0] == "n=64 views=2 epoch=1"
    rows = [line.split("\t") for line in lines[1:]]
    peaks = {row[0]: float(row[1]) for row in rows[:-2]}
    for phase in ("eval pass", "k-means", "prior", "forward sample_consensus",
                  "forward soft_assignment", "backward soft_assignment",
                  "backward normalize_consensus", "adam"):
        assert phase in peaks
    assert all(peak >= 0.0 for peak in peaks.values())
    label, peak, top = rows[-2]
    assert label == "epoch_peak_mb"
    assert float(peak) == max(peaks.values()) and peaks[top] == float(peak)
    assert rows[-1][0] == "tape_after_build_loss_mb" and float(rows[-1][1]) > 0.0
