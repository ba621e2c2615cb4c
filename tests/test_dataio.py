"""Dataset directory round trips, config parsing, and the synthetic benchmark."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgc.cluster import fuse
from mvgc.dataio import (
    DatasetError,
    MultiViewDataset,
    RunConfig,
    SbmArgumentError,
    generate_sbm,
    load_dataset,
    min_max_scale,
    parse_config_file,
    read_labels,
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
        {"lr": 0.0},
        {"lr": -1.0},
        {"tau": float("nan")},
        {"tau": float("inf")},
        {"gamma_c": float("inf")},
        {"gamma_e": float("nan")},
        {"rho": float("inf")},
        {"lr": float("inf")},
    ],
)
def test_run_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


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

    path.write_text("epochs=3\n# a comment\nepochs = 1\n")
    with pytest.raises(DatasetError, match=r"bad\.conf line 3: key 'epochs' repeats line 1"):
        parse_config_file(path)

    with pytest.raises(DatasetError, match=r"cannot read config file .*absent\.conf"):
        parse_config_file(tmp_path / "absent.conf")


@pytest.mark.parametrize(
    "line, message",
    [
        ("tau=nan", "tau must be positive and finite"),
        ("gamma_e=inf", "gamma_c and gamma_e must be nonnegative and finite"),
        ("rho=-inf", "rho must be nonnegative and finite"),
        ("dropout=nan", r"dropout must lie in \[0, 1\)"),
        ("lr=0", "lr must be positive and finite"),
        ("lr=-1", "lr must be positive and finite"),
    ],
)
def test_parse_config_file_names_the_line_of_a_non_finite_knob_or_nonpositive_lr(
    tmp_path, line, message
):
    path = tmp_path / "run.conf"
    path.write_text(f"epochs=3\n{line}\n")
    with pytest.raises(DatasetError, match=rf"run\.conf line 2: {message}$"):
        parse_config_file(path)


def test_min_max_scale_maps_columns_onto_unit_interval():
    x = np.array([[1.0, -3.0], [3.0, 5.0], [2.0, 1.0]])
    scaled = min_max_scale(x)
    assert scaled.min(axis=0).tolist() == [0.0, 0.0]
    assert scaled.max(axis=0).tolist() == [1.0, 1.0]
    assert scaled[2, 0] == pytest.approx(0.5)


def test_min_max_scale_collapses_constant_columns_to_zero():
    x = np.array([[4.0, 1.0], [4.0, 2.0]])
    assert np.array_equal(min_max_scale(x)[:, 0], [0.0, 0.0])


def test_min_max_scale_names_a_column_whose_range_overflows():
    x = np.array([[0.0, 1e308], [1.0, -1e308], [0.5, 0.0]])
    with pytest.raises(ValueError, match=r"^column 2: its range overflows float64$"):
        min_max_scale(x)
    # a range just inside float64 still scales
    scaled = min_max_scale([[-8e307], [8e307]])
    assert scaled[:, 0].tolist() == [0.0, 1.0]


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
        assert np.array_equal(ga.adj.toarray(), gb.adj.toarray())


def test_generate_sbm_edge_rates_follow_block_probabilities():
    dataset = generate_sbm(n=300, c=3, V=1, p_in=0.3, p_out=0.05, seed=1)
    adj = dataset.graphs[0].adj.toarray()
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
    noisy_within = dataset.graphs[1].adj.toarray()[same & upper].mean()
    clean_within = dataset.graphs[0].adj.toarray()[same & upper].mean()
    assert noisy_within == pytest.approx(0.01, abs=0.01)
    assert clean_within == pytest.approx(0.25, abs=0.03)


def test_generate_sbm_features_stay_in_unit_interval_with_self_loops():
    dataset = generate_sbm(n=12, c=2, V=2, p_in=0.9, p_out=0.1, seed=3)
    for x, g in dataset.views:
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert np.array_equal(g.adj.diagonal(), np.ones(12))


def test_generate_sbm_validates_arguments():
    with pytest.raises(ValueError, match="p_out"):
        generate_sbm(n=10, c=2, V=1, p_in=0.1, p_out=0.5)
    with pytest.raises(ValueError, match="clusters"):
        generate_sbm(n=3, c=5, V=1, p_in=0.5, p_out=0.1)
    with pytest.raises(ValueError, match="cluster codes"):
        generate_sbm(n=10, c=4, V=1, p_in=0.5, p_out=0.1, feature_dim=3)
    with pytest.raises(ValueError, match="noisy_view"):
        generate_sbm(n=10, c=2, V=2, p_in=0.5, p_out=0.1, noisy_view=2)


@pytest.mark.parametrize(
    "name, value",
    [("n", 0), ("c", 0), ("V", 0), ("p_in", 0.0), ("feature_noise", -0.1),
     ("feature_noise", float("inf")), ("noisy_view", -1), ("seed", -1)],
)
def test_generate_sbm_names_the_argument_it_rejects(name, value):
    kwargs = dict(n=10, c=2, V=2, p_in=0.5, p_out=0.1) | {name: value}
    with pytest.raises(SbmArgumentError, match=f"^{name}=") as info:
        generate_sbm(**kwargs)
    assert info.value.name == name


def test_dataset_save_load_round_trip(tmp_path):
    dataset = generate_sbm(n=15, c=3, V=2, p_in=0.7, p_out=0.1, seed=4)
    save_dataset(dataset, tmp_path / "toy")
    loaded = load_dataset(tmp_path / "toy")
    assert loaded.n == 15 and loaded.c == 3 and loaded.num_views == 2
    assert np.array_equal(loaded.labels, dataset.labels)
    for (x_new, g_new), (x_old, g_old) in zip(loaded.views, dataset.views):
        assert np.array_equal(g_new.adj.toarray(), g_old.adj.toarray())
        # loading rescales features column-wise
        assert np.allclose(x_new, min_max_scale(x_old))


def test_directed_graphs_survive_the_round_trip(tmp_path):
    adj = np.zeros((3, 3))
    adj[0, 1] = 1.0
    adj[2, 0] = 1.0
    g = add_self_loops(Graph(adj))
    x = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    dataset = MultiViewDataset(
        views=((x, g),), labels=np.array([0, 1, 1]), c=2
    )
    save_dataset(dataset, tmp_path / "directed")
    meta = (tmp_path / "directed" / "meta").read_text()
    assert "directed=true" in meta
    loaded = load_dataset(tmp_path / "directed")
    assert np.array_equal(loaded.graphs[0].adj.toarray(), g.adj.toarray())


def test_load_builds_knn_graph_when_edge_file_is_missing(tmp_path):
    root = tmp_path / "nog"
    root.mkdir()
    rng = np.random.default_rng(5)
    x = rng.random((9, 4))
    (root / "meta").write_text("n=9\nV=1\nc=2\n")
    np.savetxt(root / "features_v1.csv", x, fmt="%.17g", delimiter=",")
    loaded = load_dataset(root, knn_k=3)
    expected = knn_graph(min_max_scale(x), 3)
    assert np.array_equal(loaded.graphs[0].adj.toarray(), expected.adj.toarray())


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

    (root / "meta").write_text("n=12\nV=1\n# comment\nn=5\nc=2\n")
    with pytest.raises(DatasetError, match="meta line 4: key 'n' repeats line 1"):
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

    (root / "labels.txt").write_text(f"0\n1\n0\n{2**63}\n")
    with pytest.raises(DatasetError, match=r"labels\.txt line 4: .* 64 bits"):
        load_dataset(root)


@pytest.mark.parametrize(
    "line, message",
    [
        ("0.5\t1", "non-integer node id"),
        ("1.9 2", "non-integer node id"),
        ("1 two", "non-integer node id"),
        ("0 1 2", "expected two node ids"),
        ("1", "expected two node ids"),
        ("-1 2", r"node index out of range \[0, 4\)"),
    ],
)
def test_a_bad_edge_line_is_named(tmp_path, line, message):
    (tmp_path / "meta").write_text("n=4\nV=1\nc=2\n")
    np.savetxt(tmp_path / "features_v1.csv", np.zeros((4, 2)), delimiter=",")
    (tmp_path / "graph_v1.tsv").write_text(f"0 1\n{line}\n")
    with pytest.raises(DatasetError, match=rf"graph_v1\.tsv line 2: {message}"):
        load_dataset(tmp_path)


@pytest.mark.parametrize(
    "meta, message",
    [
        ("n=0\nV=1\nc=1\n", "meta line 1: n=0"),
        ("n=4\nV=0\nc=2\n", "meta line 2: V=0"),
        ("n=4\nV=1\nc=0\n", r"meta line 3: c=0 must lie in \[1, n=4\]"),
        ("n=4\n# comment\nV=1\nc=5\n", "meta line 4: c=5"),
    ],
    ids=["n_zero", "V_zero", "c_zero", "c_above_n"],
)
def test_load_rejects_out_of_range_meta_counts(tmp_path, meta, message):
    (tmp_path / "meta").write_text(meta)
    with pytest.raises(DatasetError, match=message):
        load_dataset(tmp_path)


@pytest.mark.parametrize("key, line", [("n", 1), ("V", 3), ("c", 4)])
@pytest.mark.parametrize("value", ["four", "2.5", ""])
def test_a_non_integer_meta_count_names_its_line(tmp_path, key, line, value):
    entries = {"n": "4", "V": "1", "c": "2"}
    entries[key] = value
    (tmp_path / "meta").write_text(
        f"n={entries['n']}\n\nV={entries['V']}\nc={entries['c']}\n"
    )
    with pytest.raises(
        DatasetError, match=f"^meta line {line}: key '{key}' must be an integer$"
    ):
        load_dataset(tmp_path)


@pytest.mark.parametrize("value", ["ture", "yes", "1", "0", "", "true false"])
def test_a_directed_value_other_than_true_or_false_is_named(tmp_path, value):
    (tmp_path / "meta").write_text(f"n=3\nV=1\nc=2\n# edges\ndirected={value}\n")
    with pytest.raises(
        DatasetError,
        match=f"^meta line 5: directed='{value}' must be true or false$",
    ):
        load_dataset(tmp_path)


@pytest.mark.parametrize("line, key", [
    (4, "dirceted"), (2, "labels"), (5, "N"),
])
def test_an_unknown_meta_key_is_named_with_its_line(tmp_path, line, key):
    lines = ["n=3", "V=1", "c=2", "directed=true"]
    lines.insert(line - 1, f"{key}=yes")
    (tmp_path / "meta").write_text("\n".join(lines) + "\n")
    np.savetxt(tmp_path / "features_v1.csv", np.eye(3), delimiter=",")
    with pytest.raises(
        DatasetError, match=f"^meta line {line}: unknown key '{key}'$"
    ):
        load_dataset(tmp_path, knn_k=1)


def test_meta_names_is_accepted_and_changes_nothing(tmp_path):
    (tmp_path / "meta").write_text("n=3\nV=1\nc=2\n")
    np.savetxt(tmp_path / "features_v1.csv", np.eye(3), delimiter=",")
    (tmp_path / "graph_v1.tsv").write_text("0 1\n")
    plain = load_dataset(tmp_path)
    (tmp_path / "meta").write_text("n=3\nV=1\nc=2\nnames=text, images\n")
    named = load_dataset(tmp_path)
    assert (plain.graphs[0].adj != named.graphs[0].adj).nnz == 0
    assert np.array_equal(plain.x_global, named.x_global)


@pytest.mark.parametrize("separator", ["\u2028", "\x85"], ids=["U+2028", "U+0085"])
def test_meta_names_may_hold_a_unicode_line_separator(tmp_path, separator):
    # a line ends only at \n, \r\n or \r, so the separator is names' text
    (tmp_path / "meta").write_text(
        f"n=3\nV=1\nc=2\nnames=alpha{separator}beta\n", encoding="utf-8"
    )
    np.savetxt(tmp_path / "features_v1.csv", np.eye(3), delimiter=",")
    (tmp_path / "graph_v1.tsv").write_text("0 1\n")
    assert load_dataset(tmp_path).n == 3


@pytest.mark.parametrize("ending", [b"\r", b"\r\n"], ids=["CR", "CRLF"])
@pytest.mark.parametrize("name", ["labels.txt", "run.conf"])
def test_a_bad_byte_is_named_by_its_line_whatever_the_line_ending(
    tmp_path, name, ending
):
    path = tmp_path / name
    read = read_labels if name == "labels.txt" else parse_config_file
    first = [b"0", b"1"] if name == "labels.txt" else [b"tau=5.0", b"rho=1.0"]
    path.write_bytes(ending.join([*first, first[0] + b" caf\xe9", first[1]]))
    with pytest.raises(
        DatasetError, match=rf"^{name} line 3: byte 0xe9 is not valid UTF-8$"
    ):
        read(path)
    # a bad line that decodes is named by the same count
    path.write_bytes(ending.join([*first, b"x=", first[1]]))
    with pytest.raises(DatasetError, match=rf"^{name} line 3: "):
        read(path)


@pytest.mark.parametrize("value, directed", [
    ("true", True), ("TRUE", True), ("True", True),
    ("false", False), ("False", False), ("FALSE", False),
])
def test_directed_reads_true_or_false_in_any_case(tmp_path, value, directed):
    (tmp_path / "meta").write_text(f"n=3\nV=1\nc=2\ndirected={value}\n")
    np.savetxt(tmp_path / "features_v1.csv", np.eye(3), delimiter=",")
    (tmp_path / "graph_v1.tsv").write_text("0 1\n")
    adj = load_dataset(tmp_path).graphs[0].adj.toarray()
    assert adj[0, 1] == 1.0
    assert adj[1, 0] == (0.0 if directed else 1.0)


def test_load_rejects_knn_k_not_below_the_node_count(tmp_path):
    (tmp_path / "meta").write_text("n=4\nV=1\nc=2\n")
    np.savetxt(tmp_path / "features_v1.csv", np.eye(4), delimiter=",")
    with pytest.raises(DatasetError, match=r"graph_v1\.tsv is missing"):
        load_dataset(tmp_path, knn_k=4)
    assert load_dataset(tmp_path, knn_k=3).n == 4


def test_load_names_the_file_and_column_whose_range_overflows(tmp_path):
    (tmp_path / "meta").write_text("n=3\nV=1\nc=2\n")
    (tmp_path / "features_v1.csv").write_text("0.1,1e308\n0.3,-1e308\n0.5,0\n")
    with pytest.raises(
        DatasetError, match=r"^features_v1\.csv column 2: its range overflows float64$"
    ):
        load_dataset(tmp_path, knn_k=1)


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
    st.tuples(
        st.just("label"), st.integers(0, 11),
        st.sampled_from(
            ["text", "1.5", "", "-1", "3", str(2**63 - 1), str(2**63), str(10**30)]
        ),
    ),
    st.tuples(st.just("label_count"), st.sampled_from([-12, -1, 1, 5])),
    st.tuples(
        st.just("meta_value"), st.sampled_from(["n", "V", "c"]),
        st.sampled_from(["abc", "2.5", "", "1e3", "0x10"]),
    ),
    st.tuples(
        st.just("duplicate_meta"), st.sampled_from(["n", "V", "c", "directed"]),
        st.sampled_from(["abc", "0", "1", "2", "3", "12", "13", "true"]),
    ),
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
    elif kind == "label":
        row, text = args
        path = root / "labels.txt"
        lines = path.read_text().splitlines()
        if row < len(lines):
            lines[row] = text
        else:
            lines.append(text)
        path.write_text("\n".join(lines) + "\n")
    elif kind == "label_count":
        (delta,) = args
        path = root / "labels.txt"
        lines = path.read_text().splitlines()
        lines = lines[:delta] if delta < 0 else lines + ["0"] * delta
        path.write_text("".join(line + "\n" for line in lines))
    elif kind == "meta_value":
        key, value = args
        path = root / "meta"
        lines = [
            f"{key}={value}" if line.split("=", 1)[0] == key else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
    elif kind == "duplicate_meta":
        key, value = args
        with (root / "meta").open("a") as handle:
            handle.write(f"{key}={value}\n")
    else:
        (view,) = args
        (root / f"graph_v{view}.tsv").unlink(missing_ok=True)


@settings(max_examples=120, deadline=None)
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
        assert all(np.isfinite(x).all() for x, _ in dataset.views)
        assert dataset.labels is None or len(dataset.labels) == dataset.n


def test_dataset_container_validates_shape_agreement():
    g = add_self_loops(Graph(np.zeros((3, 3))))
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="at least one view"):
        MultiViewDataset(views=(), labels=None, c=1)
    with pytest.raises(ValueError, match="node count"):
        MultiViewDataset(views=((np.zeros((4, 2)), g),), labels=None, c=2)
    for outside in (x + 2.0, x - 0.5, np.array([[0.0, 1.5]] * 3)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MultiViewDataset(views=((outside, g),), labels=None, c=2)
    nan = x.copy()
    nan[0, 0] = np.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        MultiViewDataset(views=((nan, g),), labels=None, c=2)
    with pytest.raises(ValueError, match="label count"):
        MultiViewDataset(views=((x, g),), labels=[0, 1], c=2)
    with pytest.raises(ValueError, match="cluster count"):
        MultiViewDataset(views=((x, g),), labels=None, c=9)


def test_global_features_are_the_views_side_by_side_and_not_an_argument():
    g = add_self_loops(Graph(np.zeros((3, 3))))
    rng = np.random.default_rng(4)
    xs = [rng.random((3, width)) for width in (2, 1, 4)]
    dataset = MultiViewDataset(views=tuple((x, g) for x in xs), labels=None, c=2)
    assert np.array_equal(dataset.x_global, np.hstack(xs))
    with pytest.raises(TypeError, match="x_global"):
        MultiViewDataset(views=((xs[0], g),), x_global=xs[0], labels=None, c=2)


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


# float64 values whose %.17g text is easy to get wrong: signed zeros,
# subnormals, the extremes, integer-valued floats and infinities
_AWKWARD_FLOATS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
    1.7976931348623157e308, 3.0, -12.0, 2.0**53, 1e16, 0.1, -1.0 / 3.0,
    np.inf, -np.inf,
])


def _fstring_rows(rows, start=0):
    """The per-value f-string writer the row template replaced."""
    return "".join(
        f"{i}\t" + "\t".join(f"{x:.17g}" for x in row) + "\n"
        for i, row in enumerate(rows, start=start)
    )


def test_row_templates_write_the_bytes_of_per_value_f_strings(tmp_path):
    rng = np.random.default_rng(20)
    z = rng.choice(_AWKWARD_FLOATS, size=(9, 7))
    z[1] = _AWKWARD_FLOATS[:7]
    z[2] = _AWKWARD_FLOATS[7:14]
    # every binary exponent
    z = np.concatenate([z, np.ldexp(rng.random((300, 7)) + 0.5,
                                    rng.integers(-1074, 1024, (300, 7)))])
    beliefs = [tuple(row[:3]) for row in z[:5]]
    losses = [tuple(np.float64(x) for x in row[:3]) for row in z[5:9]]
    out = tmp_path / "run"
    save_run(out, labels=np.zeros(2, dtype=int), metrics=None,
             beliefs_history=beliefs, loss_history=losses,
             embeddings=(z, [z[:, :2], z[:, :0]]))
    assert (out / "zbar.tsv").read_text() == _fstring_rows(z)
    assert (out / "z_v1.tsv").read_text() == _fstring_rows(z[:, :2])
    assert (out / "z_v2.tsv").read_text() == _fstring_rows(z[:, :0])
    assert (out / "beliefs.tsv").read_text() == _fstring_rows(beliefs)
    assert (out / "losses.tsv").read_text() == _fstring_rows(losses, start=1)

    # a zbar that lines up with its views: a row's block with the bits of
    # the view's row reuses the view's text, and every file must still read
    # as the per-value writer's
    a, b, empty = z[:, :3], z[:, 3:], z[:, :0]
    signed = fuse([a, b], (1.0, 1.0)).value
    assert signed[1, 0] == 0.0 and not np.signbit(signed[1, 0])
    signed[1, 0] = -0.0  # equal in value to its view, not in bits
    cases = [
        (fuse([a, b], (1.0, 0.5)).value, [a, b]),
        (fuse([a, b], (1.0, 1.0)).value, [a, b]),
        (signed, [a, b]),
        (fuse([a[:0], b[:0]], (1.0, 0.5)).value, [a[:0], b[:0]]),
        (fuse([a, empty, b], (1.0, 1.0, 0.5)).value, [a, empty, b]),
        (fuse([empty], (1.0,)).value, [empty]),
        # rows that do not line up fall back to formatting zbar itself
        (z, [a[:5], b]),
    ]
    for k, (zbar, z_views) in enumerate(cases):
        out = tmp_path / f"fused{k}"
        save_run(out, labels=np.zeros(2, dtype=int), metrics=None,
                 beliefs_history=beliefs, loss_history=losses,
                 embeddings=(zbar, z_views))
        assert (out / "zbar.tsv").read_text() == _fstring_rows(zbar), k
        for v, view in enumerate(z_views, start=1):
            assert (out / f"z_v{v}.tsv").read_text() == _fstring_rows(view), (k, v)

    s = np.abs(rng.choice(_AWKWARD_FLOATS[np.isfinite(_AWKWARD_FLOATS)], size=(6, 6)))
    write_consensus_tsv(tmp_path / "consensus.tsv", s, threshold=0.0)
    assert (tmp_path / "consensus.tsv").read_text() == "".join(
        f"{i}\t{j}\t{s[i, j]:.17g}\n" for i, j in zip(*np.nonzero(s >= 0.0))
    )


def test_saving_embeddings_holds_one_row_of_each_file_at_a_time(tmp_path):
    # the text of zbar is over 8 MB and of each view about half that; a row
    # of zbar is about 20 kB
    rng = np.random.default_rng(22)
    views = [rng.normal(size=(400, 512)) for _ in range(2)]
    zbar = fuse(views, (1.0, 0.5)).value
    tracemalloc.start()
    try:
        save_run(tmp_path / "run", labels=np.zeros(400, dtype=int), metrics=None,
                 beliefs_history=[(1.0, 0.5)], loss_history=[],
                 embeddings=(zbar, views))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (tmp_path / "run" / "zbar.tsv").stat().st_size > 8_000_000


@pytest.mark.parametrize("directed", [False, True])
def test_saved_edge_lists_match_the_per_edge_writer(tmp_path, directed):
    rng = np.random.default_rng(21)
    adj = (rng.random((12, 12)) < 0.3).astype(np.float64)
    if not directed:
        adj = np.maximum(adj, adj.T)
    g = add_self_loops(Graph(adj))
    x = rng.random((12, 3))
    dataset = MultiViewDataset(views=((x, g),), labels=None, c=2)
    save_dataset(dataset, tmp_path / "d")
    rows, cols = np.nonzero(g.adj.toarray())
    expected = "".join(
        f"{i}\t{j}\n" for i, j in zip(rows, cols)
        if i != j and (directed or i < j)
    )
    assert (tmp_path / "d" / "graph_v1.tsv").read_text() == expected
