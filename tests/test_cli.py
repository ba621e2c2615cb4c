"""End-to-end command-line flows on small synthetic datasets."""

import re

import numpy as np
import pytest

from mvgc import trainer
from mvgc.cli import build_parser, format_metrics_line, main

METRICS_LINE = re.compile(
    r"^NMI=\d+\.\d ARI=-?\d+\.\d ACC=\d+\.\d F1=\d+\.\d$"
)

FAST_FLAGS = [
    "--epochs", "2", "--hidden", "8", "--embed-dim", "4",
    "--restarts", "2", "--dropout", "0.0",
]


def synth(tmp_path, name="data", **kwargs):
    target = tmp_path / name
    argv = [
        "synth", "--out", str(target), "--n", "30", "--c", "2",
        "--views", "2", "--p-in", "0.6", "--p-out", "0.05", "--seed", "3",
    ]
    for key, value in kwargs.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    return target


def test_synth_cluster_metrics_round_trip(tmp_path, capsys):
    data = synth(tmp_path)
    assert (data / "meta").is_file()
    assert "wrote 30 nodes / 2 views" in capsys.readouterr().out

    run = tmp_path / "run"
    assert main(["cluster", str(data), "--out", str(run), *FAST_FLAGS]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert METRICS_LINE.match(line)
    for name in ("labels.txt", "metrics.json", "metrics.txt",
                 "beliefs.tsv", "losses.tsv"):
        assert (run / name).is_file()

    assert main(["metrics", str(data / "labels.txt"),
                 str(run / "labels.txt")]) == 0
    assert METRICS_LINE.match(capsys.readouterr().out.strip())


def test_metrics_of_identical_labelings_is_all_hundred(tmp_path, capsys):
    path = tmp_path / "labels.txt"
    path.write_text("0\n0\n1\n1\n2\n2\n")
    assert main(["metrics", str(path), str(path)]) == 0
    assert capsys.readouterr().out.strip() == "NMI=100.0 ARI=100.0 ACC=100.0 F1=100.0"


def test_cluster_optional_exports(tmp_path, capsys):
    data = synth(tmp_path)
    run = tmp_path / "run"
    assert main([
        "cluster", str(data), "--out", str(run), *FAST_FLAGS,
        "--export-embeddings", "--export-consensus",
        "--consensus-threshold", "0.4",
    ]) == 0
    capsys.readouterr()
    for name in ("zbar.tsv", "z_v1.tsv", "z_v2.tsv", "consensus.tsv"):
        assert (run / name).is_file()
    for line in (run / "consensus.tsv").read_text().splitlines():
        assert float(line.split("\t")[2]) >= 0.4


def test_config_file_applies_and_flags_override_it(tmp_path, capsys):
    data = synth(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text("epochs=2\nhidden=8\nembed_dim=4\nrestarts=2\ndropout=0.0\n")

    run_a = tmp_path / "a"
    assert main(["cluster", str(data), "--out", str(run_a),
                 "--config", str(conf)]) == 0
    assert len((run_a / "losses.tsv").read_text().splitlines()) == 2

    run_b = tmp_path / "b"
    assert main(["cluster", str(data), "--out", str(run_b),
                 "--config", str(conf), "--epochs", "1"]) == 0
    assert len((run_b / "losses.tsv").read_text().splitlines()) == 1
    capsys.readouterr()


def test_verify_subcommand_prints_checks_and_exits_zero(capsys):
    assert main(["verify", "theorem1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "3/3 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_missing_dataset_directory_exits_two(tmp_path, capsys):
    assert main(["cluster", str(tmp_path / "absent"), "--out",
                 str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_flag_value_exits_two(tmp_path, capsys):
    assert main(["cluster", str(tmp_path), "--out", str(tmp_path / "run"),
                 "--tau", "-1"]) == 2
    assert "tau must be positive" in capsys.readouterr().err


def test_out_of_range_config_value_exits_two(tmp_path, capsys):
    data = synth(tmp_path)
    conf = tmp_path / "bad.conf"
    conf.write_text("tau=-1\n")
    capsys.readouterr()
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 "--config", str(conf)]) == 2
    assert "bad.conf line 1: tau must be positive" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path, capsys):
    data = synth(tmp_path)
    capsys.readouterr()
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 "--config", str(tmp_path / "absent.conf")]) == 2
    assert "absent.conf" in capsys.readouterr().err


def test_cluster_count_out_of_range_in_meta_exits_two(tmp_path, capsys):
    data = synth(tmp_path)
    meta = data / "meta"
    meta.write_text(meta.read_text().replace("c=2", "c=0"))
    capsys.readouterr()
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 *FAST_FLAGS]) == 2
    assert "meta: c=0" in capsys.readouterr().err


def test_knn_k_not_below_the_node_count_exits_two(tmp_path, capsys):
    data = synth(tmp_path)
    (data / "graph_v1.tsv").unlink()
    capsys.readouterr()
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 *FAST_FLAGS, "--knn-k", "30"]) == 2
    assert "graph_v1.tsv is missing" in capsys.readouterr().err


def test_non_finite_feature_cell_exits_two(tmp_path, capsys):
    data = synth(tmp_path)
    path = data / "features_v2.csv"
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")
    cells[1] = "nan"
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 *FAST_FLAGS]) == 2
    assert "features_v2.csv line 5: non-finite cell 'nan'" in capsys.readouterr().err


def test_non_finite_final_embedding_exits_one(tmp_path, capsys, monkeypatch):
    data = synth(tmp_path)
    capsys.readouterr()
    real_step = trainer.adam_step

    def poisoned_step(optimizer):
        real_step(optimizer)
        optimizer.params[0].value[0, 0] = np.nan

    monkeypatch.setattr(trainer, "adam_step", poisoned_step)
    run = tmp_path / "run"
    assert main(["cluster", str(data), "--out", str(run), *FAST_FLAGS,
                 "--epochs", "1"]) == 1
    assert "final embedding is not finite" in capsys.readouterr().err
    assert not (run / "labels.txt").exists()


def test_broken_config_file_exits_two(tmp_path, capsys):
    data = synth(tmp_path)
    conf = tmp_path / "bad.conf"
    conf.write_text("warp=9\n")
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 "--config", str(conf)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_metrics_subcommand_validates_label_files(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    pred = tmp_path / "pred.txt"
    truth.write_text("0\n1\n")
    pred.write_text("0\n1\n0\n")
    assert main(["metrics", str(truth), str(pred)]) == 2
    assert "label counts differ" in capsys.readouterr().err

    pred.write_text("0\nduck\n")
    assert main(["metrics", str(truth), str(pred)]) == 2
    assert "non-integer label" in capsys.readouterr().err


def test_synth_noisy_view_flag_is_one_based(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "x"), "--n", "12", "--c", "2",
                 "--noisy-view", "0"]) == 1
    assert "1-based" in capsys.readouterr().err
    assert main(["synth", "--out", str(tmp_path / "y"), "--n", "12", "--c", "2",
                 "--noisy-view", "2"]) == 0
    capsys.readouterr()


def test_parser_exposes_every_config_knob():
    parser = build_parser()
    args = parser.parse_args([
        "cluster", "somewhere", "--tau", "2", "--rho", "0.5", "--order", "1",
        "--gamma-c", "0.1", "--gamma-e", "0.2", "--lr", "0.01",
        "--epochs", "3", "--hidden", "16", "--embed-dim", "8",
        "--dropout", "0.2", "--knn-k", "4", "--seed", "9", "--restarts", "2",
    ])
    assert args.tau == 2.0 and args.gamma_c == 0.1 and args.knn_k == 4


def test_format_metrics_line_rounds_to_one_decimal():
    line = format_metrics_line(
        {"nmi": 0.8594, "ari": 0.75, "acc": 1.0, "f1": 0.3333}
    )
    assert line == "NMI=85.9 ARI=75.0 ACC=100.0 F1=33.3"
