"""Dataset directory round trips, config parsing, and the synthetic benchmark."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgc.dataio import (
    DatasetError,
    MultiViewDataset,
    RunConfig,
    generate_sbm,
    load_dataset,
    min_max_scale,
    parse_config_file,
    save_dataset,
    save_run,
    write_consensus_tsv,
)
from mvgc.graph import Graph, add_self_loops, knn_graph


def test_run_config_defaults_are_usable():
    config = RunConfig()
    assert config.tau == 5.0
    assert config.order == 2
    assert config.epochs == 200
    assert config.hidden == config.embed_dim == 512


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": 0.0},
        {"rho": -0.1},
        {"order": -1},
        {"gamma_c": -1.0},
        {"gamma_e": -0.5},
        {"dropout": 1.0},
        {"dropout": -0.2},
        {"epochs": -1},
        {"hidden": 0},
        {"embed_dim": 0},
        {"knn_k": 0},
        {"restarts": 0},
    ],
)
def test_run_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_with_overrides_returns_validated_copy():
    config = RunConfig().with_overrides(tau=2.0, epochs=5)
    assert config.tau == 2.0 and config.epochs == 5
    assert RunConfig().tau == 5.0
    with pytest.raises(ValueError):
        RunConfig().with_overrides(tau=-1.0)


def test_parse_config_file_reads_typed_overrides(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment line\n"
        "tau = 2.5\n"
        "\n"
        "epochs=10   # trailing comment\n"
        "order=3\n"
    )
    overrides = parse_config_file(path)
    assert overrides == {"tau": 2.5, "epochs": 10, "order": 3}
    assert isinstance(overrides["epochs"], int)


def test_parse_config_file_names_file_and_line_on_errors(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("tau=5\nnot a pair\n")
    with pytest.raises(DatasetError, match=r"bad\.conf line 2: expected key=value"):
        parse_config_file(path)

    path.write_text("speed=9\n")
    with pytest.raises(DatasetError, match=r"line 1: unknown key 'speed'"):
        parse_config_file(path)

    path.write_text("epochs=ten\n")
    with pytest.raises(DatasetError, match=r"cannot parse 'ten' for epochs"):
        parse_config_file(path)

    path.write_text("epochs=3\ndropout=1.5\n")
    with pytest.raises(DatasetError, match=r"line 2: dropout must lie in \[0, 1\)"):
        parse_config_file(path)

    with pytest.raises(DatasetError, match=r"cannot read config file .*absent\.conf"):
        parse_config_file(tmp_path / "absent.conf")


def test_min_max_scale_maps_columns_onto_unit_interval():
    x = np.array([[1.0, -3.0], [3.0, 5.0], [2.0, 1.0]])
    scaled = min_max_scale(x)
    assert scaled.min(axis=0).tolist() == [0.0, 0.0]
    assert scaled.max(axis=0).tolist() == [1.0, 1.0]
    assert scaled[2, 0] == pytest.approx(0.5)


def test_min_max_scale_collapses_constant_columns_to_zero():
    x = np.array([[4.0, 1.0], [4.0, 2.0]])
    assert np.array_equal(min_max_scale(x)[:, 0], [0.0, 0.0])


def test_generate_sbm_balances_cluster_sizes():
    dataset = generate_sbm(n=10, c=3, V=2, p_in=0.8, p_out=0.1, seed=0)
    counts = np.bincount(dataset.labels)
    assert counts.tolist() == [4, 3, 3]
    assert dataset.num_views == 2
    assert dataset.n == 10


def test_generate_sbm_is_deterministic():
    kwargs = dict(n=20, c=2, V=2, p_in=0.5, p_out=0.1, seed=7)
    a, b = generate_sbm(**kwargs), generate_sbm(**kwargs)
    for (xa, ga), (xb, gb) in zip(a.views, b.views):
        assert np.array_equal(xa, xb)
        assert np.array_equal(ga.adj, gb.adj)


def test_generate_sbm_edge_rates_follow_block_probabilities():
    dataset = generate_sbm(n=300, c=3, V=1, p_in=0.3, p_out=0.05, seed=1)
    adj = dataset.graphs[0].adj
    labels = dataset.labels
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones_like(adj, dtype=bool), k=1)
    within_rate = adj[same & upper].mean()
    between_rate = adj[~same & upper].mean()
    assert within_rate == pytest.approx(0.3, abs=0.03)
    assert between_rate == pytest.approx(0.05, abs=0.02)


def test_generate_sbm_noisy_view_loses_block_structure():
    dataset = generate_sbm(
        n=200, c=4, V=2, p_in=0.25, p_out=0.01, noisy_view=1, seed=2
    )
    labels = dataset.labels
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones((200, 200), dtype=bool), k=1)
    noisy_within = dataset.graphs[1].adj[same & upper].mean()
    clean_within = dataset.graphs[0].adj[same & upper].mean()
    assert noisy_within == pytest.approx(0.01, abs=0.01)
    assert clean_within == pytest.approx(0.25, abs=0.03)


def test_generate_sbm_features_stay_in_unit_interval_with_self_loops():
    dataset = generate_sbm(n=12, c=2, V=2, p_in=0.9, p_out=0.1, seed=3)
    for x, g in dataset.views:
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert np.array_equal(np.diag(g.adj), np.ones(12))


def test_generate_sbm_validates_arguments():
    with pytest.raises(ValueError, match="p_out"):
        generate_sbm(n=10, c=2, V=1, p_in=0.1, p_out=0.5)
    with pytest.raises(ValueError, match="clusters"):
        generate_sbm(n=3, c=5, V=1, p_in=0.5, p_out=0.1)
    with pytest.raises(ValueError, match="cluster codes"):
        generate_sbm(n=10, c=4, V=1, p_in=0.5, p_out=0.1, feature_dim=3)
    with pytest.raises(ValueError, match="noisy_view"):
        generate_sbm(n=10, c=2, V=2, p_in=0.5, p_out=0.1, noisy_view=2)


def test_dataset_save_load_round_trip(tmp_path):
    dataset = generate_sbm(n=15, c=3, V=2, p_in=0.7, p_out=0.1, seed=4)
    save_dataset(dataset, tmp_path / "toy")
    loaded = load_dataset(tmp_path / "toy")
    assert loaded.n == 15 and loaded.c == 3 and loaded.num_views == 2
    assert np.array_equal(loaded.labels, dataset.labels)
    for (x_new, g_new), (x_old, g_old) in zip(loaded.views, dataset.views):
        assert np.array_equal(g_new.adj, g_old.adj)
        # loading rescales features column-wise
        assert np.allclose(x_new, min_max_scale(x_old))


def test_directed_graphs_survive_the_round_trip(tmp_path):
    adj = np.zeros((3, 3))
    adj[0, 1] = 1.0
    adj[2, 0] = 1.0
    g = add_self_loops(Graph(adj))
    x = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    dataset = MultiViewDataset(
        views=((x, g),), x_global=x, labels=np.array([0, 1, 1]), c=2
    )
    save_dataset(dataset, tmp_path / "directed")
    meta = (tmp_path / "directed" / "meta").read_text()
    assert "directed=true" in meta
    loaded = load_dataset(tmp_path / "directed")
    assert np.array_equal(loaded.graphs[0].adj, g.adj)


def test_load_builds_knn_graph_when_edge_file_is_missing(tmp_path):
    root = tmp_path / "nog"
    root.mkdir()
    rng = np.random.default_rng(5)
    x = rng.random((9, 4))
    (root / "meta").write_text("n=9\nV=1\nc=2\n")
    np.savetxt(root / "features_v1.csv", x, fmt="%.17g", delimiter=",")
    loaded = load_dataset(root, knn_k=3)
    expected = knn_graph(min_max_scale(x), 3, metric="cosine")
    assert np.array_equal(loaded.graphs[0].adj, expected.adj)


def test_load_reports_malformed_files_by_name_and_line(tmp_path):
    root = tmp_path / "bad"
    root.mkdir()
    with pytest.raises(DatasetError, match="meta file not found"):
        load_dataset(root)

    (root / "meta").write_text("n=4\nV=1\n")
    with pytest.raises(DatasetError, match="missing required key 'c'"):
        load_dataset(root)

    (root / "meta").write_text("n=four\nV=1\nc=2\n")
    with pytest.raises(DatasetError, match="must be an integer"):
        load_dataset(root)

    (root / "meta").write_text("n=4\nV=1\nc=2\n")
    with pytest.raises(DatasetError, match="missing features file"):
        load_dataset(root)

    (root / "features_v1.csv").write_text("0.1,0.2\n0.3,oops\n0.5,0.6\n0.7,0.8\n")
    with pytest.raises(DatasetError, match=r"features_v1\.csv line 2: non-numeric"):
        load_dataset(root)

    np.savetxt(root / "features_v1.csv", np.zeros((4, 2)), delimiter=",")
    (root / "graph_v1.tsv").write_text("0 1\n3 9\n")
    with pytest.raises(DatasetError, match=r"graph_v1\.tsv line 2: node index"):
        load_dataset(root)

    (root / "graph_v1.tsv").write_text("0 1\n1 2\n")
    (root / "labels.txt").write_text("0\n1\nx\n0\n")
    with pytest.raises(DatasetError, match=r"labels\.txt line 3: non-integer"):
        load_dataset(root)


@pytest.mark.parametrize(
    "meta, message",
    [
        ("n=0\nV=1\nc=1\n", "meta: n=0"),
        ("n=4\nV=0\nc=2\n", "meta: V=0"),
        ("n=4\nV=1\nc=0\n", r"meta: c=0 must lie in \[1, n=4\]"),
        ("n=4\nV=1\nc=5\n", "meta: c=5"),
    ],
    ids=["n_zero", "V_zero", "c_zero", "c_above_n"],
)
def test_load_rejects_out_of_range_meta_counts(tmp_path, meta, message):
    (tmp_path / "meta").write_text(meta)
    with pytest.raises(DatasetError, match=message):
        load_dataset(tmp_path)


def test_load_rejects_knn_k_not_below_the_node_count(tmp_path):
    (tmp_path / "meta").write_text("n=4\nV=1\nc=2\n")
    np.savetxt(tmp_path / "features_v1.csv", np.eye(4), delimiter=",")
    with pytest.raises(DatasetError, match=r"graph_v1\.tsv is missing"):
        load_dataset(tmp_path, knn_k=4)
    assert load_dataset(tmp_path, knn_k=3).n == 4


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_load_rejects_non_finite_feature_cells_by_line(tmp_path, cell):
    (tmp_path / "meta").write_text("n=3\nV=1\nc=2\n")
    (tmp_path / "features_v1.csv").write_text(f"0.1,0.2\n\n0.3,0.4\n0.5,{cell}\n")
    with pytest.raises(
        DatasetError, match=rf"features_v1\.csv line 4: non-finite cell '{cell}'"
    ):
        load_dataset(tmp_path, knn_k=1)


_FUZZ_BASE = generate_sbm(
    n=12, c=3, V=2, p_in=0.8, p_out=0.1, feature_dim=4, seed=0
)

_MUTATIONS = st.one_of(
    st.tuples(
        st.just("cell"), st.integers(1, 2), st.integers(0, 11), st.integers(0, 3),
        st.sampled_from(["nan", "inf", "-inf", "text", "", " "]),
    ),
    st.tuples(st.just("drop_meta"), st.sampled_from(["n", "V", "c", "directed"])),
    st.tuples(st.just("zero_meta"), st.sampled_from(["n", "V", "c", "directed"])),
    st.tuples(st.just("edge"), st.integers(1, 2), st.sampled_from([-1, 12, 13, 10**6])),
    st.tuples(st.just("drop_graph"), st.integers(1, 2)),
)


def _mutate(root, mutation):
    kind, *args = mutation
    if kind == "cell":
        view, row, col, text = args
        path = root / f"features_v{view}.csv"
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = text
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    elif kind in ("drop_meta", "zero_meta"):
        (key,) = args
        path = root / "meta"
        lines = []
        for line in path.read_text().splitlines():
            if line.split("=", 1)[0] == key:
                if kind == "drop_meta":
                    continue
                line = f"{key}=0"
            lines.append(line)
        path.write_text("\n".join(lines) + "\n")
    elif kind == "edge":
        view, bad = args
        with (root / f"graph_v{view}.tsv").open("a") as handle:
            handle.write(f"0\t{bad}\n")
    else:
        (view,) = args
        (root / f"graph_v{view}.tsv").unlink(missing_ok=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(_MUTATIONS, min_size=1, max_size=3), st.integers(1, 14))
def test_mutated_dataset_directories_load_or_raise_dataset_error(mutations, knn_k):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_dataset(_FUZZ_BASE, root)
        for mutation in mutations:
            _mutate(root, mutation)
        try:
            dataset = load_dataset(root, knn_k=knn_k)
        except DatasetError:
            return
        assert all(np.isfinite(x).all() for x in dataset.features)


def test_dataset_container_validates_shape_agreement():
    g = add_self_loops(Graph(np.zeros((3, 3))))
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="at least one view"):
        MultiViewDataset(views=(), x_global=x, labels=None, c=1)
    with pytest.raises(ValueError, match="node count"):
        MultiViewDataset(
            views=((np.zeros((4, 2)), g),), x_global=np.zeros((4, 2)),
            labels=None, c=2,
        )
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        MultiViewDataset(views=((x + 2.0, g),), x_global=x, labels=None, c=2)
    with pytest.raises(ValueError, match="global features"):
        MultiViewDataset(views=((x, g),), x_global=np.zeros((3, 5)), labels=None, c=2)
    with pytest.raises(ValueError, match="label count"):
        MultiViewDataset(views=((x, g),), x_global=x, labels=[0, 1], c=2)
    with pytest.raises(ValueError, match="cluster count"):
        MultiViewDataset(views=((x, g),), x_global=x, labels=None, c=9)


def test_save_run_writes_every_report_file(tmp_path):
    out = tmp_path / "run"
    save_run(
        out,
        labels=np.array([1, 0, 1]),
        metrics={"nmi": 0.859, "acc": 0.912},
        beliefs_history=[(1.0, 1.0), (1.0, 0.5), (1.0, 0.25)],
        loss_history=[(0.5, 0.1, 0.01), (0.4, 0.05, 0.02)],
        embeddings=(np.eye(2), [np.ones((2, 1))]),
    )
    assert (out / "labels.txt").read_text() == "1\n0\n1\n"

    parsed = json.loads((out / "metrics.json").read_text())
    assert parsed == {"nmi": 0.859, "acc": 0.912}
    assert (out / "metrics.txt").read_text() == "ACC=91.2\nNMI=85.9\n"

    beliefs_rows = (out / "beliefs.tsv").read_text().splitlines()
    assert len(beliefs_rows) == 3
    assert beliefs_rows[0].startswith("0\t1\t1")
    assert beliefs_rows[2].split("\t")[0] == "2"

    loss_rows = (out / "losses.tsv").read_text().splitlines()
    assert len(loss_rows) == 2
    assert loss_rows[0].split("\t")[0] == "1"

    assert (out / "zbar.tsv").read_text().splitlines()[0] == "0\t1\t0"
    assert (out / "z_v1.tsv").is_file()


def test_save_run_without_metrics_skips_metric_files(tmp_path):
    out = tmp_path / "nolabels"
    save_run(out, labels=np.zeros(2, dtype=int), metrics=None,
             beliefs_history=[(1.0,)], loss_history=[])
    assert not (out / "metrics.json").exists()
    assert not (out / "metrics.txt").exists()
    assert (out / "labels.txt").is_file()


def test_write_consensus_tsv_filters_by_threshold(tmp_path):
    s = np.array([[0.9, 0.2], [0.5, 0.7]])
    path = tmp_path / "consensus.tsv"
    write_consensus_tsv(path, s, threshold=0.5)
    lines = path.read_text().splitlines()
    assert lines == [
        f"0\t0\t{0.9:.17g}",
        f"1\t0\t{0.5:.17g}",
        f"1\t1\t{0.7:.17g}",
    ]
