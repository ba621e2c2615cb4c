"""Peak traced memory of each phase of one training epoch.

    python3 scripts/epoch_memory.py --src SRC --n N [--views V]

The script imports ``mvgc`` from ``SRC/src``, draws a planted-partition
dataset in memory (``generate_sbm``: c=4, p_in 0.05, p_out 0.002, seed 1000,
the shape of the benchmark's ``planted_n1600`` inputs), runs one untraced
epoch with the default ``RunConfig``, and then runs the second epoch under
``tracemalloc``.  Only allocations made during that epoch count.

The epoch is split into phases by wrapping, at run time, the names that
``mvgc.trainer`` calls, so library code stays free of profiling:

- ``eval pass``, ``k-means``, ``beliefs`` and ``prior`` (the KL bound from
  the edge-pattern counts) in ``prepare_epoch``;
- ``forward <stage>`` for each stage of ``build_loss``, and ``forward
  build_loss`` for the sums that join them (``forward sample_consensus``
  includes the concrete noise, which the sample node draws itself;
  ``forward normalize_consensus`` takes only the sample's n x 1 row sums,
  and ``forward encode_view`` divides each hop's n x d product by them, so
  no row-normalized n x n copy of the sample exists in either pass;
  ``forward adjacency_nll`` holds the whole likelihood of each view: the
  decoder certificate and either the count-form score or, when the
  certificate fails, ``adjacency_nll`` itself); a stage called outside
  ``build_loss`` and outside the eval pass, as ``prepare_epoch`` calls
  ``fuse`` for k-means and the beliefs, is ``eval <stage>``;
- ``backward <stage>`` for the gradient functions of the tape nodes that
  stage recorded, and ``backward`` for the walk between them;
- ``zero_grads`` and ``adam``; ``other`` is everything outside these.

Each time the phase changes, the traced peak since the last change is
credited to the phase that was running, and the peak is reset.  The script
prints each phase's peak in MB, in the order the phases first ran, then the
phase that set the epoch's peak, the traced memory that ``build_loss`` left
allocated (the tape and the loss terms), and ``state_mb``: the bytes the
training state holds between epochs (parameter values, gradients, Adam
moments and optimizer scratch), which are allocated before tracing starts
and so appear in no phase.

The wrapper around a gradient function keeps the node's incoming gradient
until the node's last pair is taken, as a generator gradient function does
itself; a node whose function returns a list would drop it sooner.  Peak RSS
depends on the heap's layout as well, so read it from the benchmark.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

MB = float(1 << 20)
# stages of build_loss, as mvgc.trainer names them
FORWARD_STAGES = (
    "infer_posterior", "sample_consensus",
    "normalize_consensus", "encode_view", "reconstruction_loss",
    "reconstruction_loss_global", "decode_adjacency", "adjacency_nll",
    "elbo_loss", "fuse", "soft_assignment", "target_distribution",
    "clustering_loss",
)
# the entropy that elbo_loss calls from mvgc.vargen
ELBO_STAGES = ("bernoulli_entropy",)
# the likelihood's other stages, credited to the stage they stand in for
LIKELIHOOD_STAGES = ("decoder_certified", "decided_nll")


class Phases:
    """A stack of running phases and the traced peak credited to each."""

    def __init__(self):
        self.stack = ["other"]
        self.peaks = {}
        self.tape_bytes = None

    def credit(self):
        """Credit the peak since the last phase change to the running
        phase, and reset the peak."""
        if tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            top = self.stack[-1]
            self.peaks[top] = max(self.peaks.get(top, 0), peak)
            tracemalloc.reset_peak()

    def enter(self, label):
        self.credit()
        self.stack.append(label)

    def leave(self):
        self.credit()
        self.stack.pop()

    def wrap(self, fn, label):
        """``fn`` run as phase ``label``; inside the eval pass, which counts
        as one phase, it runs unlabelled."""
        def run(*args, **kwargs):
            if self.stack[-1] == "eval pass":
                return fn(*args, **kwargs)
            self.enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return run

    def wrap_stage(self, fn, name):
        """A stage of the loss as phase ``forward <name>`` inside
        ``build_loss`` and as ``eval <name>`` outside it."""
        forward = self.wrap(fn, f"forward {name}")
        outside = self.wrap(fn, f"eval {name}")

        def run(*args, **kwargs):
            inside = "forward build_loss" in self.stack
            return (forward if inside else outside)(*args, **kwargs)
        return run

    def wrap_build_loss(self, fn):
        """``build_loss`` as a phase that also notes the traced memory it
        leaves allocated."""
        def run(*args, **kwargs):
            self.enter("forward build_loss")
            start = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                if tracemalloc.is_tracing():
                    self.tape_bytes = tracemalloc.get_traced_memory()[0] - start
                self.leave()
        return run

    def wrap_grad_fn(self, grad_fn, label):
        """A node's gradient function as phase ``label``.  A generator, so
        that the phase also spans the walk's accumulation of each pair."""
        def run(g):
            self.enter(label)
            try:
                yield from grad_fn(g)
            finally:
                self.leave()
        return run

    def wrap_record(self, record):
        """``_record`` that labels each node by the stage recording it."""
        def run(out, parents, grad_fn):
            top = self.stack[-1]
            stage = top.split(" ", 1)[1] if top.startswith("forward ") else top
            return record(out, parents, self.wrap_grad_fn(grad_fn, f"backward {stage}"))
        return run


def install(phases):
    """Wrap the trainer's calls, the vargen stage elbo_loss calls, every
    mvgc module's ``_record`` and ``Tensor.backward``.  A name the tree's
    trainer does not bind is skipped, so that trees from before and after
    the count-form KL bound and likelihood can be compared: older ones form
    the prior with ``compute_prior_beta`` and ``kl_upper_bound``, and have
    no certificate."""
    import mvgc.trainer as trainer
    from mvgc import vargen
    from mvgc.nncore import tensor

    trainer.build_loss = phases.wrap_build_loss(trainer.build_loss)
    for name, label in (
        ("_forward_eval", "eval pass"), ("kmeans", "k-means"),
        ("update_beliefs", "beliefs"), ("compute_prior_beta", "prior"),
        ("kl_upper_bound", "prior"), ("pattern_kl_bound", "prior"),
        ("zero_grads", "zero_grads"), ("adam_step", "adam"),
    ):
        if hasattr(trainer, name):
            setattr(trainer, name, phases.wrap(getattr(trainer, name), label))
    for module, names in ((trainer, FORWARD_STAGES), (vargen, ELBO_STAGES)):
        for name in names:
            setattr(module, name, phases.wrap_stage(getattr(module, name), name))
    for name in LIKELIHOOD_STAGES:
        if hasattr(trainer, name):
            setattr(trainer, name,
                    phases.wrap_stage(getattr(trainer, name), "adjacency_nll"))
    record = tensor._record
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("mvgc")
                and getattr(module, "_record", None) is record):
            module._record = phases.wrap_record(record)
    tensor.Tensor.backward = phases.wrap(tensor.Tensor.backward, "backward")


def state_bytes(state):
    """Bytes of the optimizer's flat arrays: the store every parameter's
    value and gradient is a view of, the Adam moments and the scratch."""
    return sum(a.nbytes for a in vars(state.optimizer).values()
               if isinstance(a, np.ndarray))


def trace_epoch(n, views):
    """Fit one untraced epoch, trace the second; returns the phases and the
    state's bytes after it."""
    from mvgc import trainer
    from mvgc.dataio import RunConfig, generate_sbm

    phases = Phases()
    install(phases)
    dataset = generate_sbm(n=n, c=4, V=views, p_in=0.05, p_out=0.002, seed=1000)
    config = RunConfig(epochs=2)
    trainer._keep_freed_heap()
    state = trainer.init_state(dataset, config)
    trainer.train_epoch(state, dataset, config)
    tracemalloc.start()
    try:
        trainer.train_epoch(state, dataset, config)
        phases.credit()
    finally:
        tracemalloc.stop()
    return phases, state_bytes(state)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="source tree whose src/mvgc runs")
    parser.add_argument("--n", required=True, type=int, help="nodes")
    parser.add_argument("--views", type=int, default=2, help="views (default 2)")
    args = parser.parse_args(argv)
    if not (args.src / "src" / "mvgc").is_dir():
        parser.error(f"{args.src} holds no src/mvgc")
    if args.n < 4 or args.views < 1:
        parser.error("need --n of at least 4 (c=4) and --views of at least 1")
    sys.path.insert(0, str(args.src.resolve() / "src"))
    phases, held = trace_epoch(args.n, args.views)
    print(f"n={args.n} views={args.views} epoch=1")
    for label, peak in phases.peaks.items():
        print(f"{label}\t{peak / MB:.1f}")
    top = max(phases.peaks, key=phases.peaks.get)
    print(f"epoch_peak_mb\t{phases.peaks[top] / MB:.1f}\t{top}")
    print(f"tape_after_build_loss_mb\t{phases.tape_bytes / MB:.1f}")
    print(f"state_mb\t{held / MB:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
