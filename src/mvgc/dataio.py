"""Dataset loading and validation, synthetic benchmarks, run persistence.

On-disk layout of a dataset directory:

    meta                flat key=value text: n, V, c, optional directed, names
    features_v{v}.csv   one row per node, comma-separated (v is 1-based)
    graph_v{v}.tsv      edge list, two 0-indexed node ids per line (optional;
                        a missing file triggers kNN construction)
    labels.txt          one integer per line (optional)

Features are min-max scaled per column into [0, 1] at load time so they can
serve as BCE targets; graphs get self-loops and, unless meta says
``directed=true``, are symmetrized.
"""

import json
import logging
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .graph import Graph, add_self_loops, knn_graph

logger = logging.getLogger(__name__)


class DatasetError(Exception):
    """Raised on malformed dataset input; the message names the file."""


@dataclass(frozen=True)
class MultiViewDataset:
    """V aligned views of (features in [0,1], Graph), their concatenation,
    and the target cluster count."""

    views: tuple
    x_global: np.ndarray
    labels: object
    c: int

    def __post_init__(self):
        if not self.views:
            raise ValueError("dataset needs at least one view")
        n = self.views[0][0].shape[0]
        width = 0
        for x, g in self.views:
            if x.shape[0] != n or g.n != n:
                raise ValueError("views disagree on node count")
            if x.min() < 0.0 or x.max() > 1.0:
                raise ValueError("features must lie in [0, 1]")
            width += x.shape[1]
        if self.x_global.shape != (n, width):
            raise ValueError(
                f"global features must be {n}x{width}, got {self.x_global.shape}"
            )
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count does not match node count")
        if not 1 <= self.c <= n:
            raise ValueError(f"cluster count {self.c} out of range for n={n}")

    @property
    def n(self):
        return self.views[0][0].shape[0]

    @property
    def num_views(self):
        return len(self.views)

    @property
    def features(self):
        return [x for x, _ in self.views]

    @property
    def graphs(self):
        return [g for _, g in self.views]


def _knob(default, help_text):
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a training run; flat key=value files mirror the fields,
    and each field's ``help`` metadata is its command-line help."""

    tau: float = _knob(5.0, "concrete relaxation temperature")
    rho: float = _knob(1.0, "belief sharpening exponent")
    order: int = _knob(2, "message passing hops")
    gamma_c: float = _knob(1.0, "clustering loss weight")
    gamma_e: float = _knob(1e-3, "evidence bound weight")
    lr: float = _knob(1e-3, "Adam learning rate")
    epochs: int = _knob(200, "training epochs")
    hidden: int = _knob(512, "hidden layer width")
    embed_dim: int = _knob(512, "per-view embedding width")
    dropout: float = _knob(0.1, "posterior net dropout rate")
    knn_k: int = _knob(10, "neighbors when building graphs from features")
    seed: int = _knob(0, "master random seed")
    restarts: int = _knob(10, "k-means restarts")

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.gamma_c < 0 or self.gamma_e < 0:
            raise ValueError("loss weights must be nonnegative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.epochs < 0 or self.hidden <= 0 or self.embed_dim <= 0:
            raise ValueError("epochs/hidden/embed_dim out of range")
        if self.knn_k <= 0 or self.restarts <= 0:
            raise ValueError("knn_k and restarts must be positive")

    def with_overrides(self, **kwargs):
        return replace(self, **kwargs)


# name -> dataclasses.Field of every RunConfig knob, in declaration order
_CONFIG_FIELDS = {f.name: f for f in fields(RunConfig)}


def parse_config_file(path):
    """Read a flat key=value config file into typed, range-checked RunConfig
    overrides."""
    overrides = {}
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise DatasetError(f"cannot read config file {path}: {err.strerror}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DatasetError(f"{path.name} line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise DatasetError(f"{path.name} line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _CONFIG_FIELDS[key].type(value)
        except ValueError:
            raise DatasetError(
                f"{path.name} line {lineno}: cannot parse {value!r} for {key}"
            ) from None
        try:
            RunConfig(**{key: overrides[key]})  # the knob's own range check
        except ValueError as err:
            raise DatasetError(f"{path.name} line {lineno}: {err}") from None
    return overrides


def min_max_scale(x):
    """Scale each column into [0, 1]; constant columns collapse to 0."""
    x = np.asarray(x, dtype=np.float64)
    lo = x.min(axis=0, keepdims=True)
    span = x.max(axis=0, keepdims=True) - lo
    return (x - lo) / np.where(span == 0.0, 1.0, span)


def _parse_meta(path):
    if not path.is_file():
        raise DatasetError(f"meta file not found: {path}")
    entries = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DatasetError(f"meta line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    for key in ("n", "V", "c"):
        if key not in entries:
            raise DatasetError(f"meta: missing required key {key!r}")
        try:
            entries[key] = int(entries[key])
        except ValueError:
            raise DatasetError(f"meta: key {key!r} must be an integer") from None
    n, num_views, c = entries["n"], entries["V"], entries["c"]
    if n < 1:
        raise DatasetError(f"meta: n={n} must be at least 1")
    if num_views < 1:
        raise DatasetError(f"meta: V={num_views} must be at least 1")
    if not 1 <= c <= n:
        raise DatasetError(f"meta: c={c} must lie in [1, n={n}]")
    entries["directed"] = str(entries.get("directed", "false")).lower() == "true"
    return entries


def _load_features(path, n):
    rows = []
    width = None
    with path.open() as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DatasetError(
                    f"{path.name} line {lineno}: expected {width} columns, "
                    f"got {len(cells)}"
                )
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError:
                bad = next(c for c in cells if not _is_number(c))
                raise DatasetError(
                    f"{path.name} line {lineno}: non-numeric cell {bad!r}"
                ) from None
    if len(rows) != n:
        raise DatasetError(f"{path.name}: expected {n} rows, found {len(rows)}")
    x = np.array(rows, dtype=np.float64)
    if not np.isfinite(x).all():
        lineno, bad = _first_non_finite_cell(path)
        raise DatasetError(f"{path.name} line {lineno}: non-finite cell {bad!r}")
    return x


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _first_non_finite_cell(path):
    """(line number, cell) of the first nan or inf cell of a features file
    that parsed; read again only once a check of the whole array failed."""
    with path.open() as handle:
        return next(
            (lineno, cell)
            for lineno, raw in enumerate(handle, start=1)
            for cell in raw.strip().split(",")
            if cell and not math.isfinite(float(cell))
        )


def _load_edges(path, n, directed):
    adj = np.zeros((n, n))
    with path.open() as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DatasetError(
                    f"{path.name} line {lineno}: expected two node ids"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise DatasetError(
                    f"{path.name} line {lineno}: non-integer node id"
                ) from None
            if not (0 <= i < n and 0 <= j < n):
                raise DatasetError(
                    f"{path.name} line {lineno}: node index out of range [0, {n})"
                )
            adj[i, j] = 1.0
            if not directed:
                adj[j, i] = 1.0
    return add_self_loops(Graph(adj))


def read_labels(path, n=None):
    """Integer labels, one per nonblank line.  With ``n``, the file must hold
    exactly ``n`` of them; without, at least one."""
    path = Path(path)
    labels = []
    with path.open() as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise DatasetError(
                    f"{path.name} line {lineno}: non-integer label {line!r}"
                ) from None
    if n is None:
        if not labels:
            raise DatasetError(f"{path.name}: no labels found")
    elif len(labels) != n:
        raise DatasetError(f"{path.name}: expected {n} labels, found {len(labels)}")
    return np.array(labels, dtype=int)


def load_dataset(directory, knn_k=10, knn_metric="cosine"):
    """Load and validate a dataset directory (formats in the module docstring).

    Views without a graph file get a kNN graph built from their scaled
    features.
    """
    directory = Path(directory)
    meta = _parse_meta(directory / "meta")
    n, num_views, c = meta["n"], meta["V"], meta["c"]
    views = []
    for v in range(1, num_views + 1):
        features_path = directory / f"features_v{v}.csv"
        if not features_path.is_file():
            raise DatasetError(f"missing features file: {features_path.name}")
        x = min_max_scale(_load_features(features_path, n))
        graph_path = directory / f"graph_v{v}.tsv"
        if graph_path.is_file():
            g = _load_edges(graph_path, n, meta["directed"])
        else:
            if knn_k >= n:
                raise DatasetError(
                    f"{graph_path.name} is missing, and a {knn_k}-nn graph "
                    f"needs more than {knn_k} nodes (meta n={n})"
                )
            logger.info(
                "no %s; building a %d-nn %s graph from features",
                graph_path.name, knn_k, knn_metric,
            )
            g = knn_graph(x, knn_k, metric=knn_metric)
        views.append((x, g))
    labels_path = directory / "labels.txt"
    labels = read_labels(labels_path, n) if labels_path.is_file() else None
    x_global = np.concatenate([x for x, _ in views], axis=1)
    return MultiViewDataset(views=tuple(views), x_global=x_global, labels=labels, c=c)


# Cluster-code amplitude relative to feature_noise=0.3 uniform noise.  Kept
# low enough that k-means on raw features sits below its detection threshold,
# so resolving the partition requires denoising by neighbourhood averaging;
# this is what lets a view's graph quality show up in its belief.
_SIGNAL_GAIN = 0.2


def generate_sbm(n, c, V, p_in, p_out, feature_dim=16, feature_noise=0.3,
                 noisy_view=None, seed=0):
    """Planted-partition benchmark with aligned per-view features.

    Clusters are balanced; every view draws its own edges (within-cluster
    probability p_in, between p_out).  Features put a faint one-hot cluster
    code in the first ``c`` columns and add uniform noise scaled by
    ``feature_noise`` everywhere, clipped back into [0, 1].  ``noisy_view``
    (0-based) replaces that view's graph with pure p_out noise.
    """
    if not 0.0 <= p_out < p_in <= 1.0:
        raise ValueError("need 0 <= p_out < p_in <= 1")
    if c > n:
        raise ValueError("more clusters than nodes")
    if feature_dim < c:
        raise ValueError(f"feature_dim {feature_dim} cannot hold {c} cluster codes")
    if noisy_view is not None and not 0 <= noisy_view < V:
        raise ValueError(f"noisy_view {noisy_view} out of range for V={V}")
    rng = np.random.default_rng(seed)
    base, extra = divmod(n, c)
    sizes = [base + (1 if k < extra else 0) for k in range(c)]
    labels = np.repeat(np.arange(c), sizes)

    signal = np.zeros((n, feature_dim))
    signal[np.arange(n), labels] = _SIGNAL_GAIN

    same = labels[:, None] == labels[None, :]
    views = []
    for v in range(V):
        if v == noisy_view:
            prob = np.full((n, n), p_out)
        else:
            prob = np.where(same, p_in, p_out)
        draw = rng.random((n, n))
        upper = np.triu(draw < prob, k=1).astype(np.float64)
        adj = upper + upper.T
        g = add_self_loops(Graph(adj))

        x = np.clip(signal + feature_noise * rng.random((n, feature_dim)), 0.0, 1.0)
        views.append((x, g))

    x_global = np.concatenate([x for x, _ in views], axis=1)
    return MultiViewDataset(views=tuple(views), x_global=x_global, labels=labels, c=c)


def save_dataset(dataset, directory):
    """Write a dataset in the loadable directory layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    directed = any(not np.array_equal(g.adj, g.adj.T) for g in dataset.graphs)
    lines = [
        f"n={dataset.n}",
        f"V={dataset.num_views}",
        f"c={dataset.c}",
        f"directed={'true' if directed else 'false'}",
    ]
    (directory / "meta").write_text("\n".join(lines) + "\n")
    for v, (x, g) in enumerate(dataset.views, start=1):
        np.savetxt(directory / f"features_v{v}.csv", x, fmt="%.17g", delimiter=",")
        with (directory / f"graph_v{v}.tsv").open("w") as handle:
            rows, cols = np.nonzero(g.adj)
            for i, j in zip(rows, cols):
                if i == j:
                    continue  # self-loops are implied
                if not directed and i > j:
                    continue
                handle.write(f"{i}\t{j}\n")
    if dataset.labels is not None:
        _write_labels(directory / "labels.txt", dataset.labels)


def _write_labels(path, labels):
    path.write_text("".join(f"{int(label)}\n" for label in labels))


def save_run(out_dir, labels, metrics, beliefs_history, loss_history,
             embeddings=None):
    """Persist one finished run.

    Writes labels.txt, metrics.json plus a key=value metrics.txt, beliefs.tsv
    (one row per epoch starting at the all-ones initialization), losses.tsv
    (one row per epoch: reconstruction, clustering, ELBO), and optionally
    zbar.tsv / z_v{v}.tsv when ``embeddings`` is (zbar, [z_v, ...]).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_labels(out_dir / "labels.txt", labels)
    if metrics is not None:
        (out_dir / "metrics.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        )
        text = "".join(
            f"{key.upper()}={100.0 * value:.1f}\n" for key, value in sorted(metrics.items())
        )
        (out_dir / "metrics.txt").write_text(text)
    with (out_dir / "beliefs.tsv").open("w") as handle:
        for epoch, beliefs in enumerate(beliefs_history):
            row = "\t".join(f"{b:.17g}" for b in beliefs)
            handle.write(f"{epoch}\t{row}\n")
    with (out_dir / "losses.tsv").open("w") as handle:
        for epoch, losses in enumerate(loss_history, start=1):
            row = "\t".join(f"{x:.17g}" for x in losses)
            handle.write(f"{epoch}\t{row}\n")
    if embeddings is not None:
        zbar, z_views = embeddings
        _write_embedding(out_dir / "zbar.tsv", zbar)
        for v, z in enumerate(z_views, start=1):
            _write_embedding(out_dir / f"z_v{v}.tsv", z)


def _write_embedding(path, z):
    with path.open("w") as handle:
        for i, row in enumerate(np.asarray(z)):
            values = "\t".join(f"{x:.17g}" for x in row)
            handle.write(f"{i}\t{values}\n")


def write_consensus_tsv(path, s_values, threshold=0.5):
    """Dump consensus edge weights at or above ``threshold`` as (i, j, weight)."""
    s_values = np.asarray(s_values)
    with Path(path).open("w") as handle:
        rows, cols = np.nonzero(s_values >= threshold)
        for i, j in zip(rows, cols):
            handle.write(f"{i}\t{j}\t{s_values[i, j]:.17g}\n")
