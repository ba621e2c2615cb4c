"""Command-line front end: cluster a dataset, generate synthetics, run the
verification suites, or score label files.

Config resolution for ``cluster`` is layered: built-in defaults, then the
optional key=value config file, then explicit flags.  Exit codes: 0 on
success (and, for ``verify``, all checks passing), 2 for unusable input
(bad flags, unreadable datasets), 1 for runtime failures.
"""

import argparse
import logging
import sys
from pathlib import Path

from .dataio import (
    _CONFIG_FIELDS,
    DatasetError,
    RunConfig,
    generate_sbm,
    load_dataset,
    parse_config_file,
    read_labels,
    save_dataset,
    save_run,
    write_consensus_tsv,
)
from .metrics import score
from .trainer import TrainingError, fit
from .verify import SUITES, format_check, run_suite

logger = logging.getLogger(__name__)


def _add_config_flags(parser):
    for name, knob in _CONFIG_FIELDS.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(
            flag, type=knob.type, default=None, help=knob.metadata["help"]
        )


def _resolve_config(args):
    overrides = {}
    if args.config is not None:
        overrides.update(parse_config_file(args.config))
    for name in _CONFIG_FIELDS:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    try:
        return RunConfig(**overrides)
    except ValueError as err:
        # config-file values are range-checked as they are read, so this is
        # an out-of-range flag: unusable input, like an unparsable one
        raise DatasetError(str(err)) from None


def format_metrics_line(metrics):
    """Percentages with one decimal, fixed order."""
    return " ".join(
        f"{key.upper()}={100.0 * metrics[key]:.1f}"
        for key in ("nmi", "ari", "acc", "f1")
    )


def _cmd_cluster(args):
    config = _resolve_config(args)
    dataset = load_dataset(args.data_dir, knn_k=config.knn_k)

    def progress(epoch, report):
        if (epoch + 1) % 20 == 0 or epoch == 0:
            beliefs = ", ".join(f"{b:.3f}" for b in report["beliefs"])
            logger.info(
                "epoch %d/%d: total=%.4f beliefs=[%s]",
                epoch + 1, config.epochs, report["total"], beliefs,
            )

    result = fit(dataset, config, callback=progress)
    out_dir = Path(args.out)
    embeddings = (result.zbar, result.z_views) if args.export_embeddings else None
    save_run(
        out_dir, result.labels, result.metrics,
        result.beliefs_history, result.loss_history, embeddings=embeddings,
    )
    if args.export_consensus:
        write_consensus_tsv(
            out_dir / "consensus.tsv", result.consensus, args.consensus_threshold
        )
    if result.metrics is not None:
        print(format_metrics_line(result.metrics))
    else:
        logger.info("dataset has no labels.txt; skipping metrics")
    logger.info("run artifacts written to %s", out_dir)
    return 0


def _cmd_synth(args):
    noisy = None if args.noisy_view is None else args.noisy_view - 1
    if noisy is not None and noisy < 0:
        raise ValueError("--noisy-view is 1-based")
    dataset = generate_sbm(
        n=args.n, c=args.c, V=args.views, p_in=args.p_in, p_out=args.p_out,
        feature_dim=args.feature_dim, feature_noise=args.feature_noise,
        noisy_view=noisy, seed=args.seed,
    )
    save_dataset(dataset, args.out)
    print(f"wrote {args.n} nodes / {args.views} views to {args.out}")
    return 0


def _cmd_verify(args):
    checks = run_suite(args.suite, seed=args.seed)
    for check in checks:
        print(format_check(check))
    failed = sum(not check.passed for check in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_metrics(args):
    truth = read_labels(args.truth)
    pred = read_labels(args.pred)
    if len(truth) != len(pred):
        raise DatasetError(
            f"label counts differ: {len(truth)} in {Path(args.truth).name}, "
            f"{len(pred)} in {Path(args.pred).name}"
        )
    print(format_metrics_line(score(truth, pred)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvgc",
        description="Multi-view graph clustering with a learned consensus graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="train on a dataset directory")
    cluster.add_argument("data_dir", help="dataset directory (see README)")
    cluster.add_argument("--config", default=None, help="key=value config file")
    cluster.add_argument("--out", default="mvgc_out", help="output directory")
    _add_config_flags(cluster)
    cluster.add_argument(
        "--export-embeddings", action="store_true",
        help="also write zbar.tsv and z_v*.tsv",
    )
    cluster.add_argument(
        "--export-consensus", action="store_true",
        help="also write consensus.tsv (thresholded edge weights)",
    )
    cluster.add_argument(
        "--consensus-threshold", type=float, default=0.5,
        help="minimum weight for exported consensus edges",
    )
    cluster.set_defaults(func=_cmd_cluster)

    synth = sub.add_parser("synth", help="generate a planted-partition dataset")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--n", type=int, default=200, help="nodes")
    synth.add_argument("--c", type=int, default=4, help="clusters")
    synth.add_argument("--views", type=int, default=2, help="views")
    synth.add_argument("--p-in", type=float, default=0.25,
                       help="within-cluster edge probability")
    synth.add_argument("--p-out", type=float, default=0.01,
                       help="between-cluster edge probability")
    synth.add_argument("--feature-dim", type=int, default=16,
                       help="feature columns per view")
    synth.add_argument("--feature-noise", type=float, default=0.3,
                       help="uniform noise added to the cluster signal")
    synth.add_argument("--noisy-view", type=int, default=None,
                       help="1-based view whose graph becomes pure noise")
    synth.add_argument("--seed", type=int, default=0, help="random seed")
    synth.set_defaults(func=_cmd_synth)

    verify = sub.add_parser("verify", help="run a numerical verification suite")
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--seed", type=int, default=0, help="random seed")
    verify.set_defaults(func=_cmd_verify)

    metrics = sub.add_parser("metrics", help="score a predicted labeling")
    metrics.add_argument("truth", help="ground-truth label file")
    metrics.add_argument("pred", help="predicted label file")
    metrics.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None):
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DatasetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
