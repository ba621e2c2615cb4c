"""Per-epoch time of two source trees, interleaved epoch by epoch.

    python3 scripts/ab_epochs.py --a SRC --b SRC --n N --views V --epochs E

Each tree is imported in a worker process of its own, with ``SRC/src`` on
``PYTHONPATH``.  Both workers draw the same planted-partition dataset in
memory (``generate_sbm``: c=4, p_in 0.05, p_out 0.002, seed 1000, the shape
of the benchmark's ``planted_n1600`` inputs) and build the same training
state with the default ``RunConfig``.  The script then asks the workers for
one ``train_epoch`` at a time, alternating A, B, B, A, A, B, ..., and each
worker times its own epoch, so neither the pipe nor the other process is
counted.  A busy stretch of the host then slows both trees' epochs of the
same index alike, and the per-epoch ratio B/A cancels most of it.

The script prints one row per epoch (A's and B's milliseconds and their
ratio), then the median ratio and its quartiles.  A ratio below 1 means B
is faster.  Both trees fit the same data from the same state, so when they
compute the same values their epochs do the same work.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

# run in each worker: build the state, then time one epoch per request
_WORKER = """
import sys, time
from mvgc import trainer
from mvgc.dataio import RunConfig, generate_sbm
n, views, epochs = map(int, sys.argv[1:4])
dataset = generate_sbm(n=n, c=4, V=views, p_in=0.05, p_out=0.002, seed=1000)
config = RunConfig(epochs=epochs)
trainer._keep_freed_heap()
state = trainer.init_state(dataset, config)
print("ready", flush=True)
for _ in sys.stdin:
    start = time.perf_counter()
    trainer.train_epoch(state, dataset, config)
    print(repr((time.perf_counter() - start) * 1e3), flush=True)
"""


def _reply(worker, side):
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"the {side} worker exited {worker.wait()}")
    return line.strip()


def interleave(a, b, n, views, epochs):
    """Per-epoch milliseconds of trees ``a`` and ``b``, as two lists;
    ``RuntimeError`` names a worker that stopped early."""
    workers = {
        side: subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(n), str(views), str(epochs)],
            env=dict(os.environ, PYTHONPATH=str(Path(src).resolve() / "src")),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for side, src in (("A", a), ("B", b))
    }
    times = {side: [] for side in workers}
    try:
        for side, worker in workers.items():
            _reply(worker, side)
        for epoch in range(epochs):
            for side in ("A", "B") if epoch % 2 == 0 else ("B", "A"):
                workers[side].stdin.write("epoch\n")
                workers[side].stdin.flush()
                times[side].append(float(_reply(workers[side], side)))
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    return times["A"], times["B"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, type=Path, help="source tree A")
    parser.add_argument("--b", required=True, type=Path, help="source tree B")
    parser.add_argument("--n", required=True, type=int, help="nodes")
    parser.add_argument("--views", type=int, default=2, help="views (default 2)")
    parser.add_argument("--epochs", required=True, type=int,
                        help="epochs per tree, at least 2")
    args = parser.parse_args(argv)
    for src in (args.a, args.b):
        if not (src / "src" / "mvgc").is_dir():
            parser.error(f"{src} holds no src/mvgc")
    if args.n < 4 or args.views < 1 or args.epochs < 2:
        parser.error("need --n of at least 4 (c=4), --views of at least 1 "
                     "and --epochs of at least 2")
    try:
        a_ms, b_ms = interleave(args.a, args.b, args.n, args.views, args.epochs)
    except RuntimeError as err:
        print(f"ab_epochs: {err}", file=sys.stderr)
        return 1
    ratios = [b / a for a, b in zip(a_ms, b_ms)]
    print(f"n={args.n} views={args.views} epochs={args.epochs}")
    print("epoch\ta_ms\tb_ms\tb_over_a")
    for epoch, (a, b, ratio) in enumerate(zip(a_ms, b_ms, ratios), start=1):
        print(f"{epoch}\t{a:.2f}\t{b:.2f}\t{ratio:.4f}")
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    for name, value in (("ratio_median", median), ("ratio_q1", q1),
                        ("ratio_q3", q3)):
        print(f"{name}\t{value:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
