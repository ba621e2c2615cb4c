"""Smoke test of ``scripts/epoch_memory.py`` at a toy scale."""

import subprocess
import sys
from pathlib import Path

from mvgc.dataio import RunConfig, generate_sbm
from mvgc.trainer import init_state

ROOT = Path(__file__).resolve().parent.parent


def state_entries(n):
    """Parameter entries of the script's model at ``n`` nodes."""
    dataset = generate_sbm(n=n, c=4, V=2, p_in=0.05, p_out=0.002, seed=1000)
    return sum(p.value.size for p in init_state(dataset, RunConfig()).parameters())


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
    peaks = {row[0]: float(row[1]) for row in rows[:-3]}
    for phase in ("eval pass", "eval fuse", "k-means", "prior",
                  "forward sample_consensus", "forward adjacency_nll",
                  "forward fuse", "forward soft_assignment",
                  "backward soft_assignment", "backward normalize_consensus",
                  "adam"):
        assert phase in peaks
    # prepare_epoch fuses for k-means before it runs it; build_loss fuses
    # after the prior
    order = list(peaks)
    assert order.index("eval pass") < order.index("eval fuse") < order.index("k-means")
    assert order.index("prior") < order.index("forward fuse")
    assert all(peak >= 0.0 for peak in peaks.values())
    label, peak, top = rows[-3]
    assert label == "epoch_peak_mb"
    assert float(peak) == max(peaks.values()) and peaks[top] == float(peak)
    assert rows[-2][0] == "tape_after_build_loss_mb" and float(rows[-2][1]) > 0.0
    # every parameter entry, at 8 bytes, in the values, gradients and both
    # moments, plus one 64 Ki-entry block of scratch
    assert rows[-1][0] == "state_mb"
    entries = state_entries(64)
    assert float(rows[-1][1]) == round((4 * entries + (1 << 16)) * 8 / (1 << 20), 1)
