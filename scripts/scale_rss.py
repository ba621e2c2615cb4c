"""Peak memory and time of one fit at a chosen scale.

    python3 scripts/scale_rss.py --src SRC --n N --views V --epochs E [--knn]
                                 [--work DIR]

With ``SRC/src`` on ``PYTHONPATH``, a child process writes a planted-partition
dataset (``mvgc synth``: c=4, p_in 0.02, p_out 0.001, seed 0), so generation
counts toward nothing measured.  With ``--knn`` the graph files are then
deleted, so the load builds each view's cosine kNN graph (k=10) from its
features.  A fresh process then loads the dataset and fits it for E epochs
with the default ``RunConfig`` (seed 0), under a 7 GB address-space limit
(``RLIMIT_AS``), so an overrun raises ``MemoryError`` instead of exhausting
the machine.  The script prints that process's ``ru_maxrss`` in MB (the
load included), the ``fit`` wall time, with ``--knn`` the ``load_dataset``
wall time, and one loss row per epoch (reconstruction, clustering, ELBO) in
the ``losses.tsv`` format, so two source trees can be compared row for
row.  WORK defaults to a temporary directory, removed at the end; a given
one is kept.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SYNTH_FLAGS = ("--c", "4", "--p-in", "0.02", "--p-out", "0.001", "--seed", "0")
# the fit process's address-space limit: the 7 GB the ROADMAP's n=8000 rung
# must fit in
LIMIT_MB = 7168

# run in the fit process: load, fit, and report as one JSON line
_FIT = """
import json, resource, sys, time
from mvgc.dataio import RunConfig, load_dataset
from mvgc.trainer import fit
start = time.perf_counter()
dataset = load_dataset(sys.argv[1])
loaded = time.perf_counter()
result = fit(dataset, RunConfig(epochs=int(sys.argv[2]), seed=0))
seconds = time.perf_counter() - loaded
print(json.dumps({
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "load_s": loaded - start,
    "fit_s": seconds,
    "losses": [list(row) for row in result.loss_history],
}))
"""


def _env(src):
    return dict(os.environ, PYTHONPATH=str(Path(src).resolve() / "src"))


def _limit_address_space():
    limit = LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def measure(src, n, views, epochs, work, knn):
    """Write the dataset (without its graph files when ``knn``), fit it, and
    return the fit process's report, or raise ``RuntimeError`` naming the
    step that failed."""
    data = work / "data"
    synth = subprocess.run(
        [sys.executable, "-m", "mvgc", "synth", "--out", str(data),
         "--n", str(n), "--views", str(views), *SYNTH_FLAGS],
        env=_env(src), stdout=subprocess.DEVNULL, check=False,
    )
    if synth.returncode != 0:
        raise RuntimeError(f"mvgc synth exited {synth.returncode}")
    if knn:
        for graph in data.glob("graph_v*.tsv"):
            graph.unlink()
    done = subprocess.run(
        [sys.executable, "-c", _FIT, str(data), str(epochs)],
        env=_env(src), stdout=subprocess.PIPE, text=True, check=False,
        preexec_fn=_limit_address_space,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"the fit exited {done.returncode} under a {LIMIT_MB} MB address "
            f"space limit"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="source tree whose src/mvgc runs")
    parser.add_argument("--n", required=True, type=int, help="nodes")
    parser.add_argument("--views", required=True, type=int, help="views")
    parser.add_argument("--epochs", required=True, type=int, help="epochs")
    parser.add_argument("--knn", action="store_true",
                        help="drop the graph files, so the load builds kNN graphs")
    parser.add_argument("--work", type=Path, default=None,
                        help="where to write the dataset (kept)")
    args = parser.parse_args(argv)
    if not (args.src / "src" / "mvgc").is_dir():
        parser.error(f"{args.src} holds no src/mvgc")
    work = args.work or Path(tempfile.mkdtemp(prefix="scale_rss_"))
    try:
        report = measure(args.src, args.n, args.views, args.epochs, work, args.knn)
    except RuntimeError as err:
        print(f"scale_rss: {err}", file=sys.stderr)
        return 1
    finally:
        if args.work is None:
            shutil.rmtree(work)
    print(f"n={args.n} views={args.views} epochs={args.epochs}")
    print(f"peak_rss_mb\t{report['peak_rss_mb']:.1f}")
    print(f"fit_s\t{report['fit_s']:.2f}")
    if args.knn:
        print(f"load_s\t{report['load_s']:.3f}")
    for epoch, row in enumerate(report["losses"], start=1):
        print("%d\t%.17g\t%.17g\t%.17g" % (epoch, *row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
