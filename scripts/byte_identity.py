"""Check that two source trees of mvgc produce byte-identical outputs.

    python3 scripts/byte_identity.py --parent SRC --change SRC [--work DIR]
    python3 scripts/byte_identity.py --blas-threads --change SRC [--work DIR]

For each tree, with its own ``src/`` on ``PYTHONPATH``, the script runs
fixed-seed ``mvgc synth``, then ``mvgc cluster --export-embeddings
--export-consensus``, then ``mvgc metrics`` of the dataset's labels against
the run's, on the three benchmark workload shapes, and every ``mvgc verify``
suite at seeds 0 and 3.  Datasets, run directories, standard
output and exit codes land in WORK/parent and WORK/change, and the two are
compared file by file.  Exit status 0 means every run exited 0 and no file
differs; 1 names the first run, on either side, that exited non-zero, or
else every file that differs.  WORK defaults to a temporary directory,
removed at the end; a given one is kept.

With ``--blas-threads`` the one tree ``--change`` runs twice, into
WORK/threads1 and WORK/threads2, with ``OPENBLAS_NUM_THREADS`` set to 1 and
to 2 in each child's environment alone.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, synth flags, cluster flags, graph files dropped): the benchmark's
# planted_n200, planted_n1600 and knn_n600_v3 shapes, the last with a noisy
# view so the beliefs move
SHAPES = (
    ("planted_n200", ["--n", "200", "--seed", "11"], ["--epochs", "30"], False),
    ("planted_n1600",
     ["--n", "1600", "--p-in", "0.05", "--p-out", "0.002", "--seed", "12"],
     ["--epochs", "4"], False),
    ("knn_n600_v3",
     ["--n", "600", "--c", "6", "--views", "3", "--p-in", "0.1",
      "--p-out", "0.005", "--feature-noise", "0.1", "--noisy-view", "2",
      "--seed", "13"],
     ["--epochs", "6"], True),
)
SUITES = ("theorem1", "theorem2", "temperature", "gradients", "metrics-oracle")
VERIFY_SEEDS = (0, 3)


def child_env(tree, blas_threads=None):
    """The environment of a child run of ``tree``: this process's, with the
    tree's ``src/`` as ``PYTHONPATH`` and, given ``blas_threads``, that
    ``OPENBLAS_NUM_THREADS``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def _mvgc(tree, cwd, args, log, blas_threads):
    """Run ``python -m mvgc ARGS`` from ``tree`` in ``cwd``; its standard
    output and exit code go to ``cwd/log``, and its standard error, which
    only carries progress, to the terminal."""
    done = subprocess.run(
        [sys.executable, "-m", "mvgc", *args], cwd=cwd,
        env=child_env(tree, blas_threads), stdout=subprocess.PIPE, check=False,
    )
    (cwd / log).write_bytes(done.stdout + f"exit {done.returncode}\n".encode())


def run_tree(tree, out, blas_threads=None):
    """Write every output the check compares for source tree ``tree``, with
    ``blas_threads`` as its children's ``OPENBLAS_NUM_THREADS`` if given."""
    out.mkdir(parents=True)

    def mvgc(args, log):
        _mvgc(tree, out, args, log, blas_threads)

    for name, synth, cluster, drop_graphs in SHAPES:
        print(f"{out}: {name}", file=sys.stderr, flush=True)
        mvgc(["synth", "--out", f"{name}/data", *synth], f"{name}.synth.txt")
        if drop_graphs:
            for path in (out / name / "data").glob("graph_v*.tsv"):
                path.unlink()
        mvgc(["cluster", f"{name}/data", "--out", f"{name}/run", "--seed", "1",
              *cluster, "--export-embeddings", "--export-consensus"],
             f"{name}.cluster.txt")
        mvgc(["metrics", f"{name}/data/labels.txt", f"{name}/run/labels.txt"],
             f"{name}.metrics.txt")
    for suite in SUITES:
        for seed in VERIFY_SEEDS:
            print(f"{out}: verify {suite} --seed {seed}", file=sys.stderr, flush=True)
            mvgc(["verify", suite, "--seed", str(seed)],
                 f"verify.{suite}.{seed}.txt")


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def differences(a, b):
    """One line for each file, in sorted path order, that is missing from
    directory ``a`` or ``b`` or differs between them."""
    a, b = Path(a), Path(b)
    files_a, files_b = _files(a), _files(b)
    out = []
    for rel in sorted(set(files_a) | set(files_b)):
        if rel not in files_b:
            out.append(f"{rel}: only in {a}")
        elif rel not in files_a:
            out.append(f"{rel}: only in {b}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            out.append(f"{rel}: differs")
    return out


def failed_runs(root):
    """The logs directly in ``root``, sorted, whose run exited non-zero: the
    last line of each log is the run's ``exit N``."""
    return [
        log.name for log in sorted(Path(root).glob("*.txt"))
        if log.read_bytes().splitlines()[-1] != b"exit 0"
    ]


def verdict(parent, change, labels=("parent", "change")):
    """None when every run in output directories ``parent`` and ``change``
    exited 0 and the two hold the same bytes; otherwise a line naming the
    first failed run, the parent's first, by its side's label, or else one
    line per difference."""
    for label, root in zip(labels, (parent, change)):
        failed = failed_runs(root)
        if failed:
            return f"{label} run failed: {failed[0]}"
    return "\n".join(differences(parent, change)) or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path,
                        help="source tree of the parent commit")
    parser.add_argument("--change", required=True, type=Path,
                        help="source tree of the change")
    parser.add_argument("--blas-threads", action="store_true",
                        help="run --change with 1 and with 2 OpenBLAS threads "
                             "instead of against --parent")
    parser.add_argument("--work", type=Path, default=None,
                        help="where to write both runs' outputs (kept)")
    args = parser.parse_args(argv)
    if (args.parent is None) != args.blas_threads:
        parser.error("give exactly one of --parent and --blas-threads")
    if args.blas_threads:
        runs = [(f"threads{t}", args.change, t) for t in (1, 2)]
    else:
        runs = [("parent", args.parent, None), ("change", args.change, None)]
    for _, tree, _ in runs:
        if not (tree / "src" / "mvgc").is_dir():
            parser.error(f"{tree} holds no src/mvgc")
    work = args.work or Path(tempfile.mkdtemp(prefix="byte_identity_"))
    try:
        for label, tree, threads in runs:
            run_tree(tree, work / label, threads)
        labels = [label for label, _, _ in runs]
        difference = verdict(*(work / label for label in labels), labels)
    finally:
        if args.work is None:
            shutil.rmtree(work)
    if difference is not None:
        for line in difference.splitlines():
            print(f"byte identity: {line}")
        return 1
    print("byte identity: no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
