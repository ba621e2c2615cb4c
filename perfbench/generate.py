"""Write a workload's input datasets for a seed.

    python3 perfbench/generate.py --workload NAME --seed N --count K --out DIR

Writes DIR/data0 .. DIR/data{K-1}; dataset i is drawn with generator seed
``N * 1000 + i``.  Runs as its own step, before any measured process starts,
so generation never counts toward set-up time or peak RSS.  The same seed
writes the same files.  Workloads marked ``drop_graphs`` keep no graph
files, so loading builds kNN graphs from the features.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((HERE / "plan.json").read_text())["workloads"][args.workload]
    sys.path.insert(0, str(HERE.parent / "src"))
    from mvgc.dataio import generate_sbm, save_dataset

    for i in range(args.count):
        out = args.out / f"data{i}"
        save_dataset(generate_sbm(**spec["generate"], seed=args.seed * 1000 + i), out)
        if spec["drop_graphs"]:
            for path in out.glob("graph_v*.tsv"):
                path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
