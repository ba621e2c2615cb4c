"""Numerical verification suites behind ``mvgc verify``.

Each suite checks one analytic property of the pipeline against an
independent route: closed forms versus the sums a fit takes, Monte Carlo
sampling versus tabulated trends, reverse-mode gradients versus central
differences, and the clustering metrics versus loop-coded oracles.  Suites
return Check records; a suite passes when every record does.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import RunConfig, generate_sbm
from .graph import Graph, hamming_distance
from .metrics import acc, ari, nmi
from .nncore import Tensor, grad_check
from .trainer import build_loss, init_state, prepare_epoch
from .vargen import (
    edge_pattern_counts,
    pattern_kl_bound,
    sample_consensus,
    view_prior_cross_entropy,
)


@dataclass(frozen=True)
class Check:
    """One verified quantity: measured value against its acceptance bound."""

    name: str
    passed: bool
    measured: float
    bound: float
    note: str = ""


def format_check(check):
    status = "PASS" if check.passed else "FAIL"
    line = (
        f"{status}  {check.name}: measured={check.measured:.3e} "
        f"bound={check.bound:.3e}"
    )
    if check.note:
        line += f"  ({check.note})"
    return line


def _random_graph(rng, n, p):
    return Graph((rng.random((n, n)) < p).astype(np.float64))


def theorem1(seed=0):
    """KL bound of the two-view equal-belief prior against its closed form.

    The bound is taken as a fit takes it, ``pattern_kl_bound`` of the
    graphs' ``edge_pattern_counts``.  With both beliefs at b, disagreeing
    entries contribute log(2b) each and jointly-absent entries
    log(b / (1 - b)); agreement on an edge contributes nothing.  The
    identity is exact, so the tolerance is float headroom only.
    """
    rng = np.random.default_rng(seed)
    pairs = [
        (_random_graph(rng, 30, 0.2), _random_graph(rng, 30, 0.2))
        for _ in range(50)
    ]
    checks = []
    for b in (0.6, 0.7, 0.9):
        worst = 0.0
        for g1, g2 in pairs:
            lhs = pattern_kl_bound(edge_pattern_counts([g1, g2]), [b, b])
            d_ham = hamming_distance(g1, g2)
            both_absent = g1.n ** 2 - (g1.adj + g2.adj).nnz
            rhs = d_ham * math.log(2.0 * b) + both_absent * math.log(b / (1.0 - b))
            worst = max(worst, abs(lhs - rhs))
        checks.append(
            Check(
                name=f"theorem1 closed-form identity (b={b})",
                passed=worst <= 1e-9,
                measured=worst,
                bound=1e-9,
                note="max |edge-pattern bound - closed form| over 50 graph pairs",
            )
        )
    return checks


def theorem2(seed=0):
    """Cross-entropy between a view and its prior slice falls as its belief
    rises (other views pinned at 0.5)."""
    rng = np.random.default_rng(seed)
    sweep = np.arange(0.1, 0.95, 0.1)
    worst = -np.inf
    for _ in range(20):
        g = _random_graph(rng, 30, 0.2)
        values = [
            view_prior_cross_entropy(g, [bv, 0.5, 0.5], view=0) for bv in sweep
        ]
        worst = max(worst, float(np.diff(values).max()))
    return [
        Check(
            name="theorem2 strict decrease in view belief",
            passed=worst < 0.0,
            measured=worst,
            bound=0.0,
            note="max consecutive difference over 20 instances, sweep 0.1..0.9",
        )
    ]


def temperature(seed=0):
    """Mean and spread of relaxed edge samples across the temperature grid.

    High temperatures flatten the sample toward 1/2 with shrinking variance;
    the grid's variances must fall monotonically and the mean must sit within
    a percentage point of one half from tau = 5 up.
    """
    rng = np.random.default_rng(seed)
    alpha = Tensor(rng.normal(size=(50, 50)))
    # bare logits enter the sample as K = alpha and Q = I
    identity = np.eye(50)
    taus = (0.1, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
    checks = []
    variances = []
    for tau in taus:
        draws = [
            sample_consensus(alpha, identity, tau, rng=rng).value
            for _ in range(40)
        ]
        pool = np.concatenate([d.reshape(-1) for d in draws])
        mean = float(pool.mean())
        variances.append(float(pool.var()))
        if tau >= 5.0:
            checks.append(
                Check(
                    name=f"temperature sample mean (tau={tau:g})",
                    passed=abs(mean - 0.5) <= 0.01,
                    measured=abs(mean - 0.5),
                    bound=0.01,
                    note=f"mean={mean:.4f} over {pool.size} draws",
                )
            )
    worst_rise = float(np.diff(variances).max())
    checks.append(
        Check(
            name="temperature variance strictly decreasing",
            passed=worst_rise < 0.0,
            measured=worst_rise,
            bound=0.0,
            note="variances " + ", ".join(f"{v:.3g}" for v in variances),
        )
    )
    return checks


# Toy draw for the finite-difference check.  This seed keeps the initial
# adjacency logits z z^T inside roughly [-5, 5], away from the reconstruction
# clamp's flat region where a difference quotient measures nothing.
_GRADIENT_TOY_SEED = 27


def gradients(seed=0):
    """Reverse-mode gradients of the full objective and each named term
    against central finite differences on a toy two-view problem.  ``seed``
    varies which parameter entries are probed; the toy instance itself is
    fixed."""
    dataset = generate_sbm(
        n=8, c=2, V=2, p_in=0.9, p_out=0.1, feature_dim=5, feature_noise=0.3,
        seed=_GRADIENT_TOY_SEED,
    )
    config = RunConfig(
        hidden=16, embed_dim=6, dropout=0.0, restarts=3, knn_k=3,
        seed=_GRADIENT_TOY_SEED,
    )
    state = init_state(dataset, config)
    artifacts = prepare_epoch(state, dataset, config)
    params = state.parameters()
    # pin the sharpened target so the finite-difference loss is smooth in
    # the parameters
    _, _, p_star = build_loss(state, dataset, config, artifacts)

    def rebuild(term):
        total, parts, _ = build_loss(state, dataset, config, artifacts, p_global=p_star)
        return total if term == "total" else parts[term]

    rng = np.random.default_rng(seed)
    checks = []
    for term, entries in (
        ("total", 48), ("reconstruction", 16), ("clustering", 16), ("elbo", 16),
    ):
        # objectives here have magnitude ~1e3, so h must be large enough
        # that float64 cancellation in (f(x+h) - f(x-h)) stays well below
        # the 1e-4 acceptance bound
        err = grad_check(
            lambda term=term: rebuild(term), params, h=1e-4,
            max_entries=entries, rng=rng,
        )
        checks.append(
            Check(
                name=f"gradients {term} objective",
                passed=err <= 1e-4,
                measured=err,
                bound=1e-4,
                note="max relative error vs central differences",
            )
        )
    return checks


def _index_map(labels):
    seen = {}
    for label in labels:
        if label not in seen:
            seen[label] = len(seen)
    return seen


def _loop_contingency(truth, pred):
    tmap, pmap = _index_map(truth), _index_map(pred)
    table = [[0] * len(pmap) for _ in range(len(tmap))]
    for t, p in zip(truth, pred):
        table[tmap[t]][pmap[p]] += 1
    return table


def _acc_oracle(truth, pred):
    """Best matched count over every injective cluster-to-class assignment."""
    table = _loop_contingency(truth, pred)
    n_true, n_pred = len(table), len(table[0])
    size = max(n_true, n_pred)
    best = 0
    for perm in itertools.permutations(range(size)):
        matched = sum(
            table[perm[j]][j]
            for j in range(n_pred)
            if perm[j] < n_true
        )
        best = max(best, matched)
    return best


def _nmi_oracle(truth, pred):
    table = _loop_contingency(truth, pred)
    n = len(truth)
    rows = [sum(row) for row in table]
    cols = [sum(col) for col in zip(*table)]

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for c in counts if c > 0)

    h_t, h_p = entropy(rows), entropy(cols)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mi = 0.0
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            if cell > 0:
                mi += cell / n * math.log(n * cell / (rows[i] * cols[j]))
    return min(max(mi / math.sqrt(h_t * h_p), 0.0), 1.0)


def _ari_oracle(truth, pred):
    table = _loop_contingency(truth, pred)
    n = len(truth)

    def pairs(count):
        return count * (count - 1) / 2.0

    index = sum(pairs(cell) for row in table for cell in row)
    sum_t = sum(pairs(c) for c in (sum(row) for row in table))
    sum_p = sum(pairs(c) for c in (sum(col) for col in zip(*table)))
    total = pairs(n)
    expected = sum_t * sum_p / total if total > 0 else 0.0
    maximum = 0.5 * (sum_t + sum_p)
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def metrics_oracle(seed=0):
    """Package metrics against brute-force oracles on 100 random labelings:
    exhaustive-permutation matching for ACC, loop-coded contingency math for
    NMI and ARI."""
    rng = np.random.default_rng(seed)
    acc_mismatches = 0
    worst_nmi = 0.0
    worst_ari = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 31))
        truth = rng.integers(0, int(rng.integers(2, 6)), size=n)
        pred = rng.integers(0, int(rng.integers(2, 6)), size=n)
        matched = round(acc(truth, pred) * n)
        if matched != _acc_oracle(truth.tolist(), pred.tolist()):
            acc_mismatches += 1
        worst_nmi = max(
            worst_nmi, abs(nmi(truth, pred) - _nmi_oracle(truth.tolist(), pred.tolist()))
        )
        worst_ari = max(
            worst_ari, abs(ari(truth, pred) - _ari_oracle(truth.tolist(), pred.tolist()))
        )
    return [
        Check(
            name="metrics-oracle ACC equals exhaustive matching",
            passed=acc_mismatches == 0,
            measured=float(acc_mismatches),
            bound=0.0,
            note="mismatching instances out of 100",
        ),
        Check(
            name="metrics-oracle NMI vs loop-coded oracle",
            passed=worst_nmi <= 1e-12,
            measured=worst_nmi,
            bound=1e-12,
        ),
        Check(
            name="metrics-oracle ARI vs loop-coded oracle",
            passed=worst_ari <= 1e-12,
            measured=worst_ari,
            bound=1e-12,
        ),
    ]


SUITES = {
    "theorem1": theorem1,
    "theorem2": theorem2,
    "temperature": temperature,
    "gradients": gradients,
    "metrics-oracle": metrics_oracle,
}


def run_suite(name, seed=0):
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; expected one of: {known}")
    return SUITES[name](seed=seed)
