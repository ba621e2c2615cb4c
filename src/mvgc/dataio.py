"""Dataset loading and validation, synthetic benchmarks, run persistence.

On-disk layout of a dataset directory:

    meta                flat key=value text: n, V, c, optional directed
                        (true or false, in any case) and names (free text,
                        which nothing reads); any other key is an error
    features_v{v}.csv   one row per node, comma-separated (v is 1-based)
    graph_v{v}.tsv      edge list, two 0-indexed node ids per line (optional;
                        a missing file triggers kNN construction)
    labels.txt          one integer per line (optional)

Every input file, a ``--config`` file included, is read by ``_lines``: as
UTF-8, without one leading byte-order mark, with a line ending at \\n,
\\r\\n or \\r as in text mode, and numbered from 1; each line is
stripped, and a blank one is skipped.  A file that cannot be read, or a
byte that is not UTF-8, raises ``DatasetError`` naming the file, and the
line of the byte.

Features are min-max scaled per column into [0, 1] at load time so they can
serve as BCE targets, and a column whose range overflows float64 is an
error; graphs get self-loops and, unless meta says ``directed=true``, are
symmetrized.  Graphs are held sparse (``mvgc.graph.Graph``); an edge list is
read straight into one, with no n x n array on the way.
"""

import codecs
import contextlib
import io
import json
import logging
import math
from dataclasses import dataclass, field, fields
from operator import itemgetter
from pathlib import Path

import numpy as np

from .graph import Graph, add_self_loops, knn_graph

logger = logging.getLogger(__name__)


class DatasetError(Exception):
    """Raised on malformed dataset input; the message names the file."""


class SbmArgumentError(ValueError):
    """An out-of-range ``generate_sbm`` argument: the parameter's ``name``
    and the ``rule`` its value breaks."""

    def __init__(self, name, value, rule):
        super().__init__(f"{name}={value} {rule}")
        self.name = name
        self.rule = rule


@dataclass(frozen=True)
class MultiViewDataset:
    """V aligned views of (features in [0,1], Graph), labels, and the target
    cluster count.  ``x_global``, the views' features side by side in view
    order, is derived from the views."""

    views: tuple
    labels: object
    c: int
    x_global: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.views:
            raise ValueError("dataset needs at least one view")
        n = self.views[0][0].shape[0]
        for x, g in self.views:
            if x.shape[0] != n or g.n != n:
                raise ValueError("views disagree on node count")
            # min and max propagate nan, which then fails both comparisons
            if not (x.min() >= 0.0 and x.max() <= 1.0):
                raise ValueError("features must lie in [0, 1]")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count does not match node count")
        if not 1 <= self.c <= n:
            raise ValueError(f"cluster count {self.c} out of range for n={n}")
        object.__setattr__(
            self, "x_global", np.concatenate([x for x, _ in self.views], axis=1)
        )

    @property
    def n(self):
        return self.views[0][0].shape[0]

    @property
    def num_views(self):
        return len(self.views)

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
        # each float knob's range excludes nan and the infinities
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not 0 <= self.rho < math.inf:
            raise ValueError("rho must be nonnegative and finite")
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if not (0 <= self.gamma_c < math.inf and 0 <= self.gamma_e < math.inf):
            raise ValueError("gamma_c and gamma_e must be nonnegative and finite")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.epochs < 0 or self.hidden <= 0 or self.embed_dim <= 0:
            raise ValueError("epochs/hidden/embed_dim out of range")
        if self.knn_k <= 0 or self.restarts <= 0:
            raise ValueError("knn_k and restarts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


# name -> dataclasses.Field of every RunConfig knob, in declaration order
_CONFIG_FIELDS = {f.name: f for f in fields(RunConfig)}


def _lines(path, what):
    """(line number, stripped line) of each nonblank line of the ``what``
    (say, ``"label file"``) at ``path``, read by the rule in the module
    docstring.  ``DatasetError`` names a file that cannot be read, and the
    file and line of a byte that is not UTF-8."""
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as err:
        raise DatasetError(f"cannot read {what} {path}: {err.strerror}") from None
    # a StringIO with newline=None splits as a file opened in text mode, and
    # hands each line ending on as \n
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = io.StringIO(data[: err.start].decode("utf-8"), newline=None)
        lineno = 1 + sum(line.endswith("\n") for line in head)
        raise DatasetError(
            f"{path.name} line {lineno}: byte 0x{data[err.start]:02x} is not "
            f"valid UTF-8"
        ) from None
    stripped = map(str.strip, io.StringIO(text, newline=None))
    return filter(itemgetter(1), enumerate(stripped, start=1))


def _key_value_lines(path, what):
    """(line number, key, value) of each key=value line of the ``what`` at
    ``path`` (``_lines``); ``#`` starts a comment.  ``DatasetError`` names
    the file and line of a line without ``=``, or of a key and the line it
    repeats."""
    first_line = {}
    for lineno, line in _lines(path, what):
        line = line.split("#", 1)[0].rstrip()
        if not line:
            continue
        if "=" not in line:
            raise DatasetError(f"{path.name} line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise DatasetError(
                f"{path.name} line {lineno}: key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        yield lineno, key, value


def parse_config_file(path):
    """Read a flat key=value config file into typed, range-checked RunConfig
    overrides; a repeated key is an error, as in ``meta``."""
    overrides = {}
    path = Path(path)
    for lineno, key, value in _key_value_lines(path, "config file"):
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
    """Scale each column into [0, 1]; constant columns collapse to 0.

    Raises ``ValueError`` naming the first column (from 1) whose range
    overflows float64, such as one holding -1e308 and 1e308, which would
    scale to nan."""
    x = np.asarray(x, dtype=np.float64)
    lo = x.min(axis=0, keepdims=True)
    with np.errstate(over="ignore"):
        span = x.max(axis=0, keepdims=True) - lo
    wide = np.flatnonzero(np.isinf(span))
    if wide.size:
        raise ValueError(f"column {wide[0] + 1}: its range overflows float64")
    return (x - lo) / np.where(span == 0.0, 1.0, span)


# every key a meta file may hold; ``names`` is documentation only
_META_KEYS = ("n", "V", "c", "directed", "names")


def _parse_meta(path):
    if not path.is_file():
        raise DatasetError(f"meta file not found: {path}")
    entries, first_line = {}, {}
    for lineno, key, value in _key_value_lines(path, "meta file"):
        if key not in _META_KEYS:
            raise DatasetError(f"meta line {lineno}: unknown key {key!r}")
        first_line[key] = lineno
        entries[key] = value
    for key in ("n", "V", "c"):
        if key not in entries:
            raise DatasetError(f"meta: missing required key {key!r}")
        try:
            entries[key] = int(entries[key])
        except ValueError:
            raise DatasetError(
                f"meta line {first_line[key]}: key {key!r} must be an integer"
            ) from None
    n, num_views, c = entries["n"], entries["V"], entries["c"]
    if n < 1:
        raise DatasetError(f"meta line {first_line['n']}: n={n} must be at least 1")
    if num_views < 1:
        raise DatasetError(
            f"meta line {first_line['V']}: V={num_views} must be at least 1"
        )
    if not 1 <= c <= n:
        raise DatasetError(f"meta line {first_line['c']}: c={c} must lie in [1, n={n}]")
    directed = entries.get("directed", "false").lower()
    if directed not in ("true", "false"):
        raise DatasetError(
            f"meta line {first_line['directed']}: directed={entries['directed']!r} "
            f"must be true or false"
        )
    entries["directed"] = directed == "true"
    return entries


def _load_features(path, n):
    """The features file's n rows as an array; ``DatasetError`` names the
    first line whose column count differs from the first row's, or that
    holds a cell that is not a finite number."""
    rows = []
    width = None
    for lineno, line in _lines(path, "features file"):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DatasetError(
                f"{path.name} line {lineno}: expected {width} columns, "
                f"got {len(cells)}"
            )
        row = []
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path.name} line {lineno}: non-numeric cell {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path.name} line {lineno}: non-finite cell {cell!r}"
                )
            row.append(value)
        rows.append(row)
    if len(rows) != n:
        raise DatasetError(f"{path.name}: expected {n} rows, found {len(rows)}")
    return np.array(rows, dtype=np.float64)


def _load_edges(path, n, directed):
    """The graph of an edge-list file, built from the parsed index pairs;
    a repeated line is one edge.  Raises ``DatasetError`` naming the first
    bad line."""
    rows, cols = [], []
    for lineno, line in _lines(path, "graph file"):
        parts = line.split()
        if len(parts) != 2:
            raise DatasetError(f"{path.name} line {lineno}: expected two node ids")
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
        rows.append(i)
        cols.append(j)
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    if not directed:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return add_self_loops(Graph.from_edges(n, rows, cols))


_LABEL_MIN, _LABEL_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def read_labels(path, n=None):
    """Integer labels, one per nonblank line.  With ``n``, the file must hold
    exactly ``n`` of them; without, at least one."""
    path = Path(path)
    labels = []
    for lineno, line in _lines(path, "label file"):
        try:
            label = int(line)
        except ValueError:
            raise DatasetError(
                f"{path.name} line {lineno}: non-integer label {line!r}"
            ) from None
        if not _LABEL_MIN <= label <= _LABEL_MAX:
            raise DatasetError(
                f"{path.name} line {lineno}: label {line!r} does not fit "
                f"in 64 bits"
            )
        labels.append(label)
    if n is None:
        if not labels:
            raise DatasetError(f"{path.name}: no labels found")
    elif len(labels) != n:
        raise DatasetError(f"{path.name}: expected {n} labels, found {len(labels)}")
    return np.array(labels, dtype=int)


def load_dataset(directory, knn_k=10):
    """Load and validate a dataset directory (formats in the module docstring).

    Views without a graph file get a cosine kNN graph built from their scaled
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
        x = _load_features(features_path, n)
        try:
            x = min_max_scale(x)
        except ValueError as err:
            raise DatasetError(f"{features_path.name} {err}") from None
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
                "no %s; building a %d-nn cosine graph from features",
                graph_path.name, knn_k,
            )
            g = knn_graph(x, knn_k)
        views.append((x, g))
    labels_path = directory / "labels.txt"
    labels = read_labels(labels_path, n) if labels_path.is_file() else None
    return MultiViewDataset(views=tuple(views), labels=labels, c=c)


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
    rules = (
        ("n", n, n >= 1, "must be at least 1"),
        ("c", c, 1 <= c <= n, f"must lie in [1, n={n}]: no more clusters than nodes"),
        ("V", V, V >= 1, "must be at least 1"),
        ("p_in", p_in, 0.0 < p_in <= 1.0, "must lie in (0, 1]"),
        ("p_out", p_out, 0.0 <= p_out < p_in, f"must lie in [0, p_in={p_in:g})"),
        ("feature_dim", feature_dim, feature_dim >= c,
         f"must be at least c={c} to hold the cluster codes"),
        ("feature_noise", feature_noise, 0.0 <= feature_noise < math.inf,
         "must be finite and nonnegative"),
        ("noisy_view", noisy_view, noisy_view is None or 0 <= noisy_view < V,
         f"must index one of the V={V} views"),
        ("seed", seed, seed >= 0, "must be nonnegative"),
    )
    for name, value, ok, rule in rules:
        if not ok:
            raise SbmArgumentError(name, value, rule)
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
        rows, cols = np.nonzero(np.triu(draw < prob, k=1))
        # free this view's n x n draw before the next view's
        del draw, prob
        g = add_self_loops(
            Graph.from_edges(n, np.concatenate([rows, cols]), np.concatenate([cols, rows]))
        )

        x = np.clip(signal + feature_noise * rng.random((n, feature_dim)), 0.0, 1.0)
        views.append((x, g))

    return MultiViewDataset(views=tuple(views), labels=labels, c=c)


def save_dataset(dataset, directory):
    """Write a dataset in the loadable directory layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    directed = any((g.adj != g.adj.T).nnz for g in dataset.graphs)
    lines = [
        f"n={dataset.n}",
        f"V={dataset.num_views}",
        f"c={dataset.c}",
        f"directed={'true' if directed else 'false'}",
    ]
    (directory / "meta").write_text("\n".join(lines) + "\n")
    for v, (x, g) in enumerate(dataset.views, start=1):
        np.savetxt(directory / f"features_v{v}.csv", x, fmt="%.17g", delimiter=",")
        rows, cols = g.edges()
        keep = rows != cols  # self-loops are implied
        if not directed:
            keep &= rows < cols
        with (directory / f"graph_v{v}.tsv").open("w") as handle:
            handle.writelines(
                "%d\t%d\n" % edge
                for edge in zip(rows[keep].tolist(), cols[keep].tolist())
            )
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
    zbar.tsv / z_v{v}.tsv when ``embeddings`` is (zbar, [z_v, ...]).  The
    embeddings are written in one pass over the rows, and zbar reuses a
    view's text wherever its block is bit-equal to that view's row, so each
    such value is formatted once (``_write_embedding``).
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
        _write_rows(handle, beliefs_history)
    with (out_dir / "losses.tsv").open("w") as handle:
        _write_rows(handle, loss_history, start=1)
    if embeddings is not None:
        _write_embedding(out_dir, *embeddings)


def _row_template(width):
    """The %-template that writes one row of ``width`` floats: the row's
    index, a tab, and its values in %.17g joined by tabs."""
    return "%d\t" + "\t".join(["%.17g"] * width) + "\n"


def _write_rows(handle, rows, start=0):
    """Write each row of the 2-d float ``rows`` by the row template, its
    index counted from ``start``.  One %-template formats a whole row."""
    if len(rows) == 0:
        return
    rows = np.asarray(rows, dtype=np.float64)
    template = _row_template(rows.shape[1])
    handle.writelines(
        template % (i, *row.tolist()) for i, row in enumerate(rows, start=start)
    )


def _write_embedding(out_dir, zbar, z_views):
    """Write zbar.tsv and z_v{v}.tsv (v from 1) in one pass over the rows,
    holding one row of each file at a time.

    zbar is the views' blocks side by side, each scaled by its belief.
    Wherever a row's block has the float64 bits of the view's row, as under
    a belief of exactly 1.0, zbar reuses the view's text; bits, not values,
    since -0.0 and 0.0 print differently.  Any other block is formatted from
    zbar, and so is a zbar whose rows or width do not line up with the
    views, file by file."""
    zbar = np.asarray(zbar, dtype=np.float64)
    z_views = [np.asarray(z, dtype=np.float64) for z in z_views]
    paths = [out_dir / f"z_v{v}.tsv" for v in range(1, len(z_views) + 1)]
    lined_up = zbar.ndim == 2 and all(
        z.ndim == 2 and len(z) == len(zbar) for z in z_views
    ) and zbar.shape[1] == sum(z.shape[1] for z in z_views)
    if not lined_up:
        for path, z in zip([out_dir / "zbar.tsv", *paths], [zbar, *z_views]):
            with path.open("w") as handle:
                _write_rows(handle, z)
        return
    ends = np.cumsum([z.shape[1] for z in z_views], dtype=int)
    columns = [slice(end - z.shape[1], end) for z, end in zip(z_views, ends)]
    templates = [_row_template(z.shape[1]) for z in z_views]
    with contextlib.ExitStack() as stack:
        zbar_handle = stack.enter_context((out_dir / "zbar.tsv").open("w"))
        handles = [stack.enter_context(path.open("w")) for path in paths]
        for i, row in enumerate(zbar):
            prefix = "%d\t" % i
            texts = []
            for z, template, handle, cols in zip(z_views, templates, handles, columns):
                line = template % (i, *z[i].tolist())
                handle.write(line)
                if not z.shape[1]:
                    continue  # an empty block adds no tab to zbar's row
                block = row[cols]
                if block.tobytes() != z[i].tobytes():
                    line = template % (i, *block.tolist())
                texts.append(line[len(prefix):-1])
            zbar_handle.write(prefix + "\t".join(texts) + "\n")


def write_consensus_tsv(path, s_values, threshold=0.5):
    """Dump consensus edge weights at or above ``threshold`` as (i, j, weight)."""
    s_values = np.asarray(s_values)
    with Path(path).open("w") as handle:
        for i, row in enumerate(s_values):
            cols = np.flatnonzero(row >= threshold)
            handle.writelines(
                "%d\t%d\t%.17g\n" % (i, j, w)
                for j, w in zip(cols.tolist(), row[cols].tolist())
            )
