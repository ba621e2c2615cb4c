"""Timing wrappers installed at run time on the names mvgc calls across layers.

Nothing here edits the program.  ``install`` rebinds module-level names that
``mvgc.trainer``, ``mvgc.cli`` and ``mvgc.dataio`` look up when they call into
another layer (plus ``Tensor.backward``), so each call records a span: name,
start, end and the span it ran inside.  Spans stay in memory and are written
out when the fit ends.  A span's self time is its duration minus the spans
directly inside it.

An untraced fit wraps only the public entry points (load, fit, save), which
is what the end-to-end metrics need.  A traced fit wraps every layer call in
``LAYER_CALLS`` and also measures the autograd tape with ``tracemalloc`` from
``build_loss`` entry to the end of ``backward``.
"""

import functools
import gc
import resource
import statistics
import time
import tracemalloc

import numpy as np

# (module, name) pairs timed in every fit: the public entry points
ENTRY_POINTS = (
    ("mvgc.dataio", "load_dataset"),
    ("mvgc.dataio", "save_run"),
    ("mvgc.dataio", "write_consensus_tsv"),
    ("mvgc.trainer", "fit"),
    ("mvgc.cli", "load_dataset"),
    ("mvgc.cli", "fit"),
    ("mvgc.cli", "save_run"),
    ("mvgc.cli", "write_consensus_tsv"),
)

# (module, name) pairs that run the reference task before each call, inside
# a save: the writer of each embedding file
PACED = (("mvgc.dataio", "_write_embedding"),)

# (module, name) pairs timed only in a traced fit
LAYER_CALLS = tuple(
    ("mvgc.trainer", name)
    for name in (
        # the trainer's own stages, which give every span its pass and epoch
        "init_state", "train_epoch", "prepare_epoch", "_forward_eval",
        "build_loss",
        # vargen
        "infer_posterior", "sample_consensus", "normalize_consensus",
        "compute_prior_beta", "decode_adjacency", "elbo_loss",
        # encoder
        "encode_view", "reconstruction_loss", "reconstruction_loss_global",
        # cluster
        "kmeans", "fuse", "update_beliefs", "soft_assignment",
        "target_distribution", "clustering_loss",
        # nncore, graph, metrics
        "zero_grads", "adam_step", "add_self_loops", "row_normalize",
        "acc", "ari", "f1", "nmi",
    )
) + (
    ("mvgc.dataio", "_load_edges"),
    ("mvgc.dataio", "knn_graph"),
)

# the stage a span runs under decides its pass
PASSES = {"trainer.prepare_epoch": "eval", "trainer.build_loss": "train"}

# per-epoch layer metrics: name -> (span, pass or None for any, measure)
EPOCH_METRICS = {
    "vargen.infer_posterior.eval.ms": ("vargen.infer_posterior", "eval", "ms"),
    "vargen.infer_posterior.train.ms": ("vargen.infer_posterior", "train", "ms"),
    "vargen.sample_consensus.eval.ms": ("vargen.sample_consensus", "eval", "ms"),
    "vargen.sample_consensus.train.ms": ("vargen.sample_consensus", "train", "ms"),
    "vargen.normalize_consensus.eval.ms": ("vargen.normalize_consensus", "eval", "ms"),
    "vargen.normalize_consensus.train.ms": ("vargen.normalize_consensus", "train", "ms"),
    "vargen.compute_prior_beta.ms": ("vargen.compute_prior_beta", None, "ms"),
    "vargen.decode_adjacency.ms": ("vargen.decode_adjacency", None, "ms"),
    "vargen.elbo_loss.ms": ("vargen.elbo_loss", None, "ms"),
    "trainer.prepare_epoch.ms": ("trainer.prepare_epoch", None, "ms"),
    "trainer.prepare_epoch.self_ms": ("trainer.prepare_epoch", None, "self_ms"),
    "trainer.build_loss.ms": ("trainer.build_loss", None, "ms"),
    "trainer.build_loss.self_ms": ("trainer.build_loss", None, "self_ms"),
    "trainer.train_epoch.self_ms": ("trainer.train_epoch", None, "self_ms"),
    "encoder.encode_view.eval.ms": ("encoder.encode_view", "eval", "ms"),
    "encoder.encode_view.train.ms": ("encoder.encode_view", "train", "ms"),
    "encoder.encode_view.calls": ("encoder.encode_view", None, "calls"),
    "encoder.reconstruction_loss.ms": ("encoder.reconstruction_loss", None, "ms"),
    "encoder.reconstruction_loss_global.ms": ("encoder.reconstruction_loss_global", None, "ms"),
    "cluster.kmeans.ms": ("cluster.kmeans", None, "ms"),
    "cluster.kmeans.calls": ("cluster.kmeans", None, "calls"),
    "cluster.update_beliefs.ms": ("cluster.update_beliefs", None, "ms"),
    "cluster.soft_assignment.ms": ("cluster.soft_assignment", None, "ms"),
    "cluster.fuse.eval.ms": ("cluster.fuse", "eval", "ms"),
    "cluster.fuse.train.ms": ("cluster.fuse", "train", "ms"),
    "cluster.clustering_loss.ms": ("cluster.clustering_loss", None, "ms"),
    "nncore.backward.ms": ("nncore.backward", None, "ms"),
    "nncore.adam_step.ms": ("nncore.adam_step", None, "ms"),
    "nncore.zero_grads.ms": ("nncore.zero_grads", None, "ms"),
}


def span_name(fn):
    """``<layer>.<function>``, the layer being the mvgc subpackage that
    defines ``fn`` (``mvgc.nncore.optim.adam_step`` -> ``nncore.adam_step``)."""
    return f"{fn.__module__.split('.')[1]}.{fn.__name__}"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_usage():
    """User and system CPU seconds and page faults of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
            "minor_faults": usage.ru_minflt, "major_faults": usage.ru_majflt}


def gc_collected():
    """Objects the cycle collector has freed so far (read only)."""
    return sum(generation["collected"] for generation in gc.get_stats())


class HostPace:
    """A fixed reference task, run just before each save, between the
    embedding files it writes and just after it.

    The task formats 16 x 512 floats the way ``save_run`` writes an
    embedding, in pure Python.  On a shared host, Python-bound work runs
    faster or slower as other tenants load the cores; the save and the tasks
    beside and inside it slow down together, so their ratio shows the cost
    of the save itself.  Samples are (start_ns, end_ns) of each task.
    """

    REPS = 3

    def __init__(self):
        self.samples = []
        self._rows = np.random.default_rng(0).standard_normal((16, 512))

    def take(self):
        started = time.perf_counter_ns()
        for _ in range(self.REPS):
            "".join("\t".join(f"{x:.17g}" for x in row) + "\n" for row in self._rows)
        self.samples.append((started, time.perf_counter_ns()))

    def measure(self, start_ns, end_ns):
        """(seconds, ratio) of the save from ``start_ns`` to ``end_ns``: its
        seconds without the tasks run inside it, and those seconds over the
        mean task time from the last task before it to the first after it."""
        inside = [(a, b) for a, b in self.samples if a >= start_ns and b <= end_ns]
        before = [(a, b) for a, b in self.samples if b <= start_ns][-1:]
        after = [(a, b) for a, b in self.samples if a >= end_ns][:1]
        seconds = (end_ns - start_ns - sum(b - a for a, b in inside)) / 1e9
        used = before + inside + after
        task_s = sum(b - a for a, b in used) / len(used) / 1e9
        return seconds, seconds / task_s


class Recorder:
    """In-memory span list.  Each span is [name, start_ns, end_ns, parent],
    parent being the index of the enclosing span or -1; a span is appended
    when it opens, so a parent always precedes its children."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def timed(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            record = [name, 0, 0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                self._open.pop()
                if after is not None:
                    after()
        return wrapper

    def roots(self, name):
        """Durations in seconds of the top-level spans called ``name``."""
        return [(end - start) / 1e9 for span_, start, end, parent in self.spans
                if span_ == name and parent == -1]

    def write_tsv(self, path):
        with open(path, "w") as handle:
            handle.write("run_id\tindex\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    f"{self.run_id}\t{index}\t{name}\t{start}\t{end}\t{parent}\n"
                )


class EpochProbe:
    """Per-epoch timestamps, collector counts and peak RSS, taken through
    ``fit``'s own ``callback`` after any callback the caller passed."""

    def __init__(self):
        self.stamps_ns = []
        self.collected = []
        self.rss_after_epoch1_mb = None

    def chain(self, callback):
        self.stamps_ns.append(time.perf_counter_ns())
        self.collected.append(gc_collected())

        def on_epoch(epoch, report):
            if callback is not None:
                callback(epoch, report)
            self.stamps_ns.append(time.perf_counter_ns())
            self.collected.append(gc_collected())
            if self.rss_after_epoch1_mb is None:
                self.rss_after_epoch1_mb = peak_rss_mb()

        return on_epoch

    def epoch_ms(self):
        """Wall time of each epoch, the first counted from ``fit`` entry."""
        s = self.stamps_ns
        return [(b - a) / 1e6 for a, b in zip(s, s[1:])]

    def collected_per_epoch(self):
        epochs = len(self.collected) - 1
        return (self.collected[-1] - self.collected[0]) / epochs if epochs else 0.0


class TapeProbe:
    """Peak traced allocation from ``build_loss`` entry to the end of
    ``backward``, in bytes, on every other epoch (1, 3, 5, ...).

    tracemalloc slows the code it watches, so layer times are taken from the
    epochs it did not watch (``epochs`` lists the watched ones).
    """

    def __init__(self):
        self.peaks = []
        self.epochs = []
        self._calls = 0

    def start(self):
        epoch = self._calls
        self._calls += 1
        if epoch % 2 == 1 and not tracemalloc.is_tracing():
            self.epochs.append(epoch)
            tracemalloc.start()

    def stop(self):
        if tracemalloc.is_tracing():
            self.peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()


def install(recorder, probe, pace, tape=None):
    """Wrap the entry points, and every layer call when ``tape`` is given
    (a traced fit).  ``pace`` runs its reference task before every
    ``save_run``, after every ``save_run`` and ``write_consensus_tsv``, and
    before every call in ``PACED``.  Returns the names that no longer exist
    in the program and so could not be wrapped."""
    import importlib

    from mvgc.nncore.tensor import Tensor

    pairs = ENTRY_POINTS + PACED + (LAYER_CALLS if tape is not None else ())
    # import every module before rebinding anything, so that no module binds
    # an already wrapped name at import time and gets wrapped twice
    modules = {name: importlib.import_module(name) for name, _ in pairs}
    missing = []
    for module_name, attr in pairs:
        module = modules[module_name]
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if (module_name, attr) in PACED:
            setattr(module, attr, _with_pace(fn, pace))
            continue
        if attr == "fit":
            fn = _with_probe(fn, probe)
        before = after = None
        if attr == "build_loss" and tape is not None:
            before = tape.start
        if attr == "save_run":
            before = after = pace.take
        if attr == "write_consensus_tsv":
            after = pace.take
        setattr(module, attr,
                recorder.timed(span_name(fn), fn, before=before, after=after))
    if tape is not None:
        Tensor.backward = recorder.timed(
            "nncore.backward", Tensor.backward, after=tape.stop
        )
    return missing


def _with_probe(fit, probe):
    @functools.wraps(fit)
    def probed(dataset, config, callback=None):
        return fit(dataset, config, callback=probe.chain(callback))
    return probed


def _with_pace(fn, pace):
    @functools.wraps(fn)
    def paced(*args, **kwargs):
        pace.take()
        return fn(*args, **kwargs)
    return paced


def layer_metrics(spans, skip_epochs=()):
    """Per-layer figures of one traced fit, from its spans.

    Per-epoch metrics are summed within each epoch and reported as the median
    over the epochs not in ``skip_epochs``; per-fit ones cover the whole fit.
    Returns (metrics, details): the details are figures of layers that only
    some workloads run.
    """
    count = len(spans)
    duration = [end - start for _, start, end, _ in spans]
    inside = [0] * count
    epoch = [None] * count
    passes = [None] * count
    epochs = 0
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            inside[parent] += duration[i]
            epoch[i], passes[i] = epoch[parent], passes[parent]
        if name == "trainer.train_epoch":
            epoch[i] = epochs
            epochs += 1
        passes[i] = PASSES.get(name, passes[i])

    per_epoch = {metric: [0.0] * epochs for metric in EPOCH_METRICS}
    wanted = {}
    for metric, (name, pass_, measure) in EPOCH_METRICS.items():
        wanted.setdefault(name, []).append((metric, pass_, measure))
    for i, (name, _, _, _) in enumerate(spans):
        if epoch[i] is None:
            continue
        for metric, pass_, measure in wanted.get(name, ()):
            if pass_ is not None and passes[i] != pass_:
                continue
            if measure == "calls":
                value = 1.0
            elif measure == "self_ms":
                value = (duration[i] - inside[i]) / 1e6
            else:
                value = duration[i] / 1e6
            per_epoch[metric][epoch[i]] += value
    metrics = {
        metric: median_or_zero(
            [v for e, v in enumerate(values) if e not in skip_epochs]
        )
        for metric, values in per_epoch.items()
    }

    named = {}
    for i, (name, *_) in enumerate(spans):
        named.setdefault(name, []).append(i)

    def ms(name, of=duration):
        return [of[i] / 1e6 for i in named.get(name, ())]

    own = [d - c for d, c in zip(duration, inside)]
    metrics["trainer.init_state.ms"] = sum(ms("trainer.init_state"))
    metrics["trainer.fit.self_ms"] = sum(ms("trainer.fit", own))
    metrics["trainer.fit.final_ms"] = (
        sum(ms("trainer.fit")) - sum(ms("trainer.init_state"))
        - sum(ms("trainer.train_epoch"))
    )

    # view graphs come from an edge list or from kNN, inside load_dataset
    graph_ns, knn_calls = [0] * count, [0] * count
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0 and name in ("dataio._load_edges", "graph.knn_graph"):
            graph_ns[parent] += duration[i]
            knn_calls[parent] += name == "graph.knn_graph"
    loads = named.get("dataio.load_dataset", ())
    metrics["dataio.load_dataset.ms"] = median_or_zero(ms("dataio.load_dataset"))
    metrics["dataio.view_graphs.ms"] = median_or_zero([graph_ns[i] / 1e6 for i in loads])
    metrics["dataio.save_run.ms"] = median_or_zero(ms("dataio.save_run"))
    metrics["trace.spans"] = count

    # layers only some workloads run: 0 on the others, so not layer metrics
    details = {
        "graph.knn_graph.calls_per_load": median_or_zero([knn_calls[i] for i in loads]),
        "dataio.write_consensus_tsv.ms": median_or_zero(ms("dataio.write_consensus_tsv")),
        "dataio.write_consensus_tsv.calls": len(named.get("dataio.write_consensus_tsv", ())),
    }
    return metrics, details


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
