"""Output checks on a finished run directory, and quality scores computed
here from the label files rather than taken from mvgc."""

import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# files a traced fit must reproduce byte for byte
IDENTICAL = ("labels.txt", "losses.tsv", "beliefs.tsv")


def read_meta(path):
    entries = dict(
        line.split("=", 1) for line in path.read_text().splitlines() if "=" in line
    )
    return int(entries["n"]), int(entries["V"]), int(entries["c"])


def read_labels(path):
    return np.array([int(line) for line in path.read_text().split()], dtype=int)


def _table(truth, pred):
    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(pred, return_inverse=True)
    table = np.zeros((t.max() + 1, p.max() + 1))
    np.add.at(table, (t, p), 1.0)
    return table


def accuracy(truth, pred):
    """Share of nodes labelled right under the best one-to-one matching."""
    table = _table(truth, pred)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum() / len(truth))


def nmi(truth, pred):
    """Mutual information over the geometric mean of the two entropies."""
    joint = _table(truth, pred) / len(truth)
    a, b = joint.sum(axis=1), joint.sum(axis=0)
    h_a = -float((a * np.log(a)).sum())
    h_b = -float((b * np.log(b)).sum())
    if h_a == 0.0 or h_b == 0.0:
        return 1.0 if h_a == h_b else 0.0
    mask = joint > 0
    mutual = float((joint[mask] * np.log(joint[mask] / np.outer(a, b)[mask])).sum())
    return mutual / math.sqrt(h_a * h_b)


def _finite_rows(path, width):
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    if any(len(row) != width for row in rows):
        raise ValueError(f"{path.name}: expected {width} columns")
    values = [float(cell) for row in rows for cell in row[1:]]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{path.name}: non-finite value")
    return rows


def check_run(out, truth, c, spec, num_views):
    """Return (problems, quality) for one run directory.

    Labels must cover every node, lie in [0, c) and beat chance by half
    again (a collapsed clustering fails); every losses.tsv and beliefs.tsv
    value must be finite, one row per epoch; the program's own ACC/NMI must
    match the ones computed here; the embeddings, and consensus.tsv where
    the workload exports it, must exist.
    """
    problems = []
    try:
        labels = read_labels(out / "labels.txt")
        if len(labels) != len(truth):
            raise ValueError(f"labels.txt: {len(labels)} labels for {len(truth)} nodes")
        if labels.min() < 0 or labels.max() >= c:
            raise ValueError(f"labels.txt: labels outside [0, {c})")
        losses = _finite_rows(out / "losses.tsv", 4)
        if len(losses) != spec["epochs"]:
            raise ValueError(f"losses.tsv: {len(losses)} rows for {spec['epochs']} epochs")
        beliefs = _finite_rows(out / "beliefs.tsv", 1 + num_views)
        if len(beliefs) != spec["epochs"] + 1:
            raise ValueError(f"beliefs.tsv: {len(beliefs)} rows")
    except (OSError, ValueError) as err:
        return [str(err)], None

    quality = {"acc": accuracy(truth, labels), "nmi": nmi(truth, labels)}
    if quality["acc"] <= 1.5 / c:
        problems.append(f"ACC {quality['acc']:.3f} is within 1.5x of chance (1/{c})")
    try:
        reported = json.loads((out / "metrics.json").read_text())
        for key, value in quality.items():
            if abs(reported[key] - value) > 1e-9:
                problems.append(f"metrics.json {key}={reported[key]}, recomputed {value}")
    except (OSError, ValueError, KeyError) as err:
        problems.append(f"metrics.json: {err!r}")
    exports = ["zbar.tsv"] + [f"z_v{v}.tsv" for v in range(1, num_views + 1)]
    if spec["export_consensus"]:
        exports.append("consensus.tsv")
    problems += [f"missing {name}" for name in exports
                 if not (out / name).is_file() or (out / name).stat().st_size == 0]
    return problems, quality
