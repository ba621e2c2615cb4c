"""Smoke test of ``scripts/scale_rss.py`` at a toy scale."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scale_rss_reports_memory_time_and_one_loss_row_per_epoch(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_rss.py"), "--src", str(ROOT),
         "--n", "64", "--views", "2", "--epochs", "2", "--work", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[0] == "n=64 views=2 epochs=2"
    assert lines[1].startswith("peak_rss_mb\t") and float(lines[1].split("\t")[1]) > 0
    assert lines[2].startswith("fit_s\t")
    rows = [line.split("\t") for line in lines[3:]]
    assert [row[0] for row in rows] == ["1", "2"]
    assert all(len(row) == 4 for row in rows)
    assert (tmp_path / "data" / "graph_v2.tsv").is_file()


def test_scale_rss_knn_drops_the_graph_files_and_reports_the_load(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_rss.py"), "--src", str(ROOT),
         "--n", "48", "--views", "2", "--epochs", "1", "--knn", "--work", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=False, timeout=300,
    )
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[0] == "n=48 views=2 epochs=1"
    assert [line.split("\t")[0] for line in lines[1:4]] == [
        "peak_rss_mb", "fit_s", "load_s",
    ]
    assert float(lines[3].split("\t")[1]) > 0.0
    assert [line.split("\t")[0] for line in lines[4:]] == ["1"]
    assert (tmp_path / "data" / "features_v2.csv").is_file()
    assert not list((tmp_path / "data").glob("graph_v*.tsv"))
