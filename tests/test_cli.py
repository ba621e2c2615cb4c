"""End-to-end command-line flows on small synthetic datasets."""

import codecs
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvgc import cli, trainer
from mvgc.cli import build_parser, format_metrics_line, main

SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_metrics_matches_on_the_zero_padded_count_table(tmp_path, capsys):
    # two matchings tie on this table; the padded solve scores F1 22/45,
    # a rectangular solve would print F1=43.3
    truth, pred = tmp_path / "truth.txt", tmp_path / "pred.txt"
    truth.write_text("0\n1\n0\n2\n2\n")
    pred.write_text("0\n0\n1\n1\n1\n")
    assert main(["metrics", str(truth), str(pred)]) == 0
    fields = capsys.readouterr().out.split()
    assert "ACC=60.0" in fields and "F1=48.9" in fields


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tau", "nan", "tau must be positive and finite"),
        ("--gamma-c", "inf", "gamma_c and gamma_e must be nonnegative and finite"),
        ("--rho", "inf", "rho must be nonnegative and finite"),
        ("--dropout", "nan", "dropout must lie in [0, 1)"),
        ("--lr", "0", "lr must be positive and finite"),
        ("--lr", "-1", "lr must be positive and finite"),
    ],
)
def test_non_finite_knob_or_nonpositive_lr_exits_two_before_training(
    tmp_path, capsys, monkeypatch, flag, value, message
):
    data = synth(tmp_path)
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "fit", no_training)
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 flag, value]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
    assert "meta line 3: c=0" in capsys.readouterr().err


def test_repeated_meta_key_exits_two(tmp_path, capsys):
    data = synth(tmp_path)
    meta = data / "meta"
    meta.write_text(meta.read_text() + "n=5\n")
    capsys.readouterr()
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 *FAST_FLAGS]) == 2
    assert "key 'n' repeats line" in capsys.readouterr().err


def test_misspelled_meta_key_exits_two_before_training(tmp_path, capsys, monkeypatch):
    data = synth(tmp_path)
    meta = data / "meta"
    meta.write_text(meta.read_text().replace("directed=", "dirceted="))
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "fit", no_training)
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 *FAST_FLAGS]) == 2
    assert "meta line 4: unknown key 'dirceted'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_feature_range_that_overflows_exits_two_before_training(
        tmp_path, capsys, monkeypatch):
    # with no graph file, the kNN graph would be built from nan features,
    # and the first epoch's loss would be nan
    data = tmp_path / "data"
    data.mkdir()
    (data / "meta").write_text("n=12\nV=1\nc=2\n")
    x = np.random.default_rng(0).random((12, 3))
    x[0, 1], x[1, 1] = 1e308, -1e308
    np.savetxt(data / "features_v1.csv", x, delimiter=",", fmt="%.17g")

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "fit", no_training)
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 "--knn-k", "3", *FAST_FLAGS]) == 2
    assert ("features_v1.csv column 2: its range overflows float64"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_repeated_config_key_exits_two_before_training(tmp_path, capsys, monkeypatch):
    data = synth(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text("epochs=3\nepochs=1\n")
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "fit", no_training)
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 "--config", str(conf)]) == 2
    assert "run.conf line 2: key 'epochs' repeats line 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1", "1.5"])
def test_consensus_threshold_outside_the_unit_interval_exits_two_before_loading(
    tmp_path, capsys, monkeypatch, value
):
    def unreachable(*args, **kwargs):
        raise AssertionError("loading or training started")

    monkeypatch.setattr(cli, "load_dataset", unreachable)
    monkeypatch.setattr(cli, "fit", unreachable)
    assert main(["cluster", str(tmp_path / "data"), "--out", str(tmp_path / "run"),
                 "--export-consensus", f"--consensus-threshold={value}"]) == 2
    assert "--consensus-threshold" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("under_file", [False, True])
def test_an_unusable_out_exits_two_naming_it_before_training(
    tmp_path, capsys, caplog, under_file
):
    # --out is an existing file, or a path below one
    data = synth(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "run" if under_file else blocker
    capsys.readouterr()
    with caplog.at_level(logging.INFO):
        code = main(["cluster", str(data), "--out", str(out), *FAST_FLAGS])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: {blocker} is not a directory")
    assert not any("epoch" in record.getMessage() for record in caplog.records)
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_exits_two_before_loading(
    tmp_path, capsys, monkeypatch, source
):
    def unreachable(*args, **kwargs):
        raise AssertionError("loading or training started")

    monkeypatch.setattr(cli, "load_dataset", unreachable)
    monkeypatch.setattr(cli, "fit", unreachable)
    argv = ["cluster", str(tmp_path / "data"), "--out", str(tmp_path / "run")]
    if source == "flag":
        argv += ["--seed", "-1"]
        message = "error: seed must be nonnegative"
    else:
        conf = tmp_path / "run.conf"
        conf.write_text("epochs=3\nseed=-1\n")
        argv += ["--config", str(conf)]
        message = "error: run.conf line 2: seed must be nonnegative"
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_negative_verify_seed_exits_two_naming_it_before_any_suite_runs(
    capsys, monkeypatch
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a suite started")

    monkeypatch.setattr(cli, "run_suite", unreachable)
    assert main(["verify", "theorem1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seed -1 must be nonnegative")
    assert captured.out == ""


def test_python_dash_m_runs_the_cli():
    result = subprocess.run(
        [sys.executable, "-m", "mvgc", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: mvgc")


def test_one_and_two_blas_threads_give_the_same_n200_run(tmp_path, capsys):
    # the criterion-5 dataset shape, where the products round alike on 1
    # and 2 OpenBLAS threads; the thread count is set in each child alone
    assert main(["synth", "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "mvgc", "cluster", str(tmp_path / "data"),
             "--out", str(out), "--epochs", "3", "--export-embeddings",
             "--export-consensus"],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC),
                 "OPENBLAS_NUM_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        runs[threads] = (result.stdout, {
            path.name: path.read_bytes() for path in sorted(out.iterdir())
        })
    assert len(runs["1"][1]) > 3
    assert runs["1"] == runs["2"]


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

    pred.write_text(f"0\n{10**30}\n")
    assert main(["metrics", str(truth), str(pred)]) == 2
    assert "pred.txt line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing", "cannot read label file {}: No such file or directory"),
        ("directory", "cannot read label file {}: Is a directory"),
        ("not utf-8", "pred.txt line 2: byte 0xff is not valid UTF-8"),
    ],
    ids=["missing", "directory", "not-utf-8"],
)
def test_metrics_exits_two_naming_an_unreadable_label_file(tmp_path, capsys, case, message):
    truth = tmp_path / "truth.txt"
    pred = tmp_path / "pred.txt"
    truth.write_text("0\n1\n")
    if case == "directory":
        pred.mkdir()
    elif case == "not utf-8":
        pred.write_bytes(b"0\n\xff\n")
    assert main(["metrics", str(truth), str(pred)]) == 2
    assert message.format(pred) in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["meta", "features_v1.csv", "graph_v1.tsv", "labels.txt", "run.conf"]
)
def test_a_byte_that_is_not_utf8_exits_two_naming_the_file_and_line(
    tmp_path, capsys, monkeypatch, name
):
    data = synth(tmp_path)
    config = tmp_path / "run.conf"
    config.write_text("tau=5.0\nrho=1.0\nseed=0\n")
    path = config if name == "run.conf" else data / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].rstrip(b"\n") + b" caf\xe9\n"
    path.write_bytes(b"".join(lines))
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "fit", no_training)
    assert main(["cluster", str(data), "--out", str(tmp_path / "run"),
                 "--config", str(config), *FAST_FLAGS]) == 2
    assert f"{name} line 3: byte 0xe9 is not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["meta", "features_v1.csv", "graph_v1.tsv", "labels.txt", "run.conf"]
)
def test_a_leading_byte_order_mark_changes_no_output(tmp_path, capsys, name):
    data = synth(tmp_path)
    config = tmp_path / "run.conf"
    config.write_text("epochs=2\nhidden=8\nembed_dim=4\nrestarts=2\ndropout=0.0\n")

    def run(out):
        argv = ["cluster", str(data), "--out", str(out), "--config", str(config)]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    plain = run(tmp_path / "plain")
    path = config if name == "run.conf" else data / name
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    capsys.readouterr()
    marked = run(tmp_path / "marked")
    assert {"labels.txt", "beliefs.tsv", "losses.tsv"} <= set(plain)
    assert marked == plain


def test_synth_noisy_view_flag_is_one_based(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "x"), "--n", "12", "--c", "2",
                 "--noisy-view", "0"]) == 2
    assert "1-based" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert main(["synth", "--out", str(tmp_path / "y"), "--n", "12", "--c", "2",
                 "--noisy-view", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [
    ("--n", "0"), ("--c", "0"), ("--views", "0"), ("--p-in", "1.5"),
    ("--p-out", "0.9"), ("--feature-dim", "1"), ("--feature-noise", "-0.1"),
    ("--noisy-view", "3"), ("--seed", "-1"),
])
def test_out_of_range_synth_flag_exits_two_naming_it_and_writes_nothing(
    tmp_path, capsys, flag, value
):
    out = tmp_path / "x"
    assert main(["synth", "--out", str(out), "--n", "12", "--c", "2",
                 flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} {value} ")
    assert not out.exists()


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
