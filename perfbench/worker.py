"""One measured fit in a fresh process: load, fit and save one workload.

    python3 perfbench/worker.py --workload NAME --data DIR --out DIR \
        --result FILE [--trace --spans FILE] [--run-id ID] [--one-save]

The process receives only the generated dataset files.  It loads them
``setup_reps`` times, fits once through the workload's entry point (the
library calls, or ``mvgc cluster``), saves the run directory (``save_reps``
times through the library; once, by the CLI itself, through ``mvgc
cluster``), loading ``setup_reps`` times more after each save, and writes
its timings to ``--result`` as JSON.  Its ``ru_maxrss`` is the workload's peak
RSS.  With ``--trace`` every layer call is timed and the spans go to
``--spans``.
"""

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

import instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--run-id", default="fit")
    parser.add_argument("--one-save", action="store_true",
                        help="save once, whatever the workload's save_reps")
    return parser.parse_args(argv)


def load_repeatedly(data, config, reps):
    """``load_dataset`` ``reps`` times; returns the last dataset loaded."""
    import mvgc.dataio

    dataset = None
    for _ in range(reps):
        dataset = None  # drop the previous copy before loading the next
        dataset = mvgc.dataio.load_dataset(data, knn_k=config.knn_k)
    return dataset


def run_fit(spec, data, out):
    """Load, fit and save through the workload's entry point; returns the
    exit code the entry point reports.

    Loads run in bursts of ``setup_reps``: before the fit and after every
    save, so that the set-up samples of a run are spread over its length.
    """
    import mvgc.cli
    import mvgc.dataio
    import mvgc.trainer

    config = mvgc.dataio.RunConfig(epochs=spec["epochs"])
    dataset = load_repeatedly(data, config, spec["setup_reps"])
    if spec["entry"] == "cli":
        del dataset
        argv = ["cluster", str(data), "--out", str(out), "--epochs",
                str(spec["epochs"]), "--export-embeddings"]
        if spec["export_consensus"]:
            argv.append("--export-consensus")
        code = mvgc.cli.main(argv)
        if code != 0:
            return code
        load_repeatedly(data, config, spec["setup_reps"])
        return 0
    result = mvgc.trainer.fit(dataset, config)
    del dataset
    for k in range(spec["save_reps"]):
        # every save writes a fresh directory, as a new run does: rewriting
        # the same files would also time ext4's flush on replace-by-truncate
        target = out if k == 0 else out.with_name(f"{out.name}.{k}")
        mvgc.dataio.save_run(
            target, result.labels, result.metrics, result.beliefs_history,
            result.loss_history, embeddings=(result.zbar, result.z_views),
        )
        if k > 0:
            shutil.rmtree(target)
        load_repeatedly(data, config, spec["setup_reps"])
    return 0


def save_samples(recorder, pace):
    """Per save (one ``save_run`` plus the export that follows it): its
    seconds, and those seconds over the reference task's (``HostPace``)."""
    saves = []  # [start_ns, end_ns]
    for name, start, end, parent in recorder.spans:
        if parent != -1:
            continue
        if name == "dataio.save_run":
            saves.append([start, end])
        if name == "dataio.write_consensus_tsv" and saves:
            saves[-1][1] = end
    measured = [pace.measure(start, end) for start, end in saves]
    return [s for s, _ in measured], [r for _, r in measured]


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((HERE / "plan.json").read_text())["workloads"][args.workload]
    if args.one_save:
        spec["save_reps"] = 1
    sys.path.insert(0, str(ROOT / "src"))

    recorder = instrument.Recorder(args.run_id)
    probe = instrument.EpochProbe()
    pace = instrument.HostPace()
    tape = instrument.TapeProbe() if args.trace else None
    result = {"run_id": args.run_id, "traced": args.trace, "exit_code": 1,
              "error": None}
    try:
        result["unwrapped"] = instrument.install(recorder, probe, pace, tape)
        result["exit_code"] = run_fit(spec, args.data, args.out)
    except SystemExit as stop:  # argparse inside the CLI exits this way
        result["exit_code"] = stop.code
    except Exception:  # noqa: BLE001 - reported as a failed fit
        result["error"] = traceback.format_exc()
    save_s, save_ref = save_samples(recorder, pace)
    result.update(
        setup_s=recorder.roots("dataio.load_dataset"),
        fit_s=recorder.roots("trainer.fit"),
        save_s=save_s,
        save_ref=save_ref,
        epoch_ms=probe.epoch_ms(),
        peak_rss_mb=instrument.peak_rss_mb(),
        cpu=instrument.cpu_usage(),
        rss_after_epoch1_mb=probe.rss_after_epoch1_mb,
        gc_collected_per_epoch=probe.collected_per_epoch(),
    )
    if tape is not None:
        layers, result["layer_details"] = instrument.layer_metrics(
            recorder.spans, set(tape.epochs)
        )
        layers["nncore.tape_peak_mb"] = (
            instrument.median_or_zero(tape.peaks) / 2**20
        )
        layers["nncore.gc_collected_per_epoch"] = result["gc_collected_per_epoch"]
        result["layers"] = layers
        if args.spans is not None:
            recorder.write_tsv(args.spans)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 1 if result["error"] is not None else result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
