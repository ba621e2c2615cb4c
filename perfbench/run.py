"""The mvgc benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory holding src/mvgc
and BENCHMARK.json).  It needs only numpy and scipy; nothing is installed.

1. ``generate.py`` writes the workload's dataset for ``--seed`` in its own
   process; the sha256 of every input file goes into the results.
2. Fits run one at a time (a closed loop), each in a fresh ``worker.py``
   process that loads, fits and saves.  Untraced, each fit gets its own
   dataset, as many as ``--seconds`` holds at the workload's ``fit_seconds``;
   quality is their mean, so one unlucky draw moves it less.  Traced
   (``--trace 1``), one untraced and one traced fit run on the same dataset,
   each saving once.
3. Every run directory is checked (see ``checks.py``).  In a traced run the
   two fits must agree byte for byte on labels, losses and beliefs, which
   shows that tracing does not perturb the program.

It prints one line per metric, then a JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``, the metrics being the
``end_to_end`` list of BENCHMARK.json untraced and the ``per_layer`` list
traced.  The full record, stamped with the environment, is written to
``.perfbench_work/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# every run must end within 180 s; stop starting work well before that
RUN_LIMIT_S = 165.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment():
    """What a result depends on besides the code: versions, cores, BLAS,
    and the commit (or a digest of src/ when the checkout has no git)."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 has no dict mode
        blas = "see numpy.show_config()"
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_worker(workload, data, fit_dir, run_id, traced, timeout, one_save=False):
    """One fit in a fresh process; returns its timings and any problems."""
    fit_dir.mkdir(parents=True)
    result_path = fit_dir / "result.json"
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--data", str(data), "--out", str(fit_dir / "out"),
        "--result", str(result_path), "--run-id", run_id,
    ]
    if traced:
        command += ["--trace", "--spans", str(fit_dir / "spans.tsv")]
    if one_save:
        command.append("--one-save")
    started = time.monotonic()
    with (fit_dir / "worker.log").open("w") as log:
        try:
            code = subprocess.run(
                command, stdout=log, stderr=subprocess.STDOUT, timeout=timeout
            ).returncode
        except subprocess.TimeoutExpired:
            code = f"killed after {timeout:.0f} s"
    fit = {"run_id": run_id, "traced": traced, "out": fit_dir / "out"}
    if result_path.is_file():
        fit.update(json.loads(result_path.read_text()))
    fit["wall_s"] = time.monotonic() - started
    fit["problems"] = []
    if code != 0:
        fit["problems"].append(f"exit code {code}")
    if fit.get("error"):
        fit["problems"].append(fit["error"].strip().splitlines()[-1])
    return fit


def planned_fits(args, datasets):
    """(dataset, traced) for each fit.  Untraced: one fit per dataset, as
    many as fit in ``--seconds``.  Traced: an untraced and a traced fit of
    the first dataset."""
    if args.trace:
        return [(datasets[0], False), (datasets[0], True)]
    return [(data, False) for data in datasets]


def dataset_count(spec, args):
    return 1 if args.trace else max(1, round(args.seconds / spec["fit_seconds"]))


def run_fits(args, plan, run_dir, started):
    """The closed loop: one fit at a time, each after the previous ended."""
    fits = []
    for index, (data, traced) in enumerate(plan):
        elapsed = time.monotonic() - started
        if fits and elapsed + fits[-1]["wall_s"] > RUN_LIMIT_S:
            break  # the next fit would not end within the run's limit
        fit = run_worker(
            args.workload, data, run_dir / f"fit{index}",
            f"{run_dir.name}-fit{index}", traced, RUN_LIMIT_S - elapsed,
            one_save=bool(args.trace),
        )
        fit["data"] = data
        fits.append(fit)
        if fit["problems"]:
            break  # a failing program fails again; stop spending time
    return fits


def check_fits(fits, spec):
    """Attach output problems and quality to each fit.  Fits of the same
    dataset must agree byte for byte on labels, losses and beliefs."""
    reference = {}
    for fit in fits:
        if fit["problems"]:
            continue
        data = fit["data"]
        _, num_views, c = checks.read_meta(data / "meta")
        truth = checks.read_labels(data / "labels.txt")
        problems, fit["quality"] = checks.check_run(fit["out"], truth, c, spec, num_views)
        fit["problems"] += problems
        if fit["problems"]:
            continue
        first = reference.setdefault(data, fit)
        for name in checks.IDENTICAL:
            if (fit["out"] / name).read_bytes() != (first["out"] / name).read_bytes():
                fit["problems"].append(f"{name} differs from {first['run_id']}")


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def end_to_end(fits):
    epochs = [ms for fit in fits for ms in fit["epoch_ms"]]
    tail_ms, tail_pct = tail(epochs)
    setups = [s for fit in fits for s in fit["setup_s"]]
    saves = [s for fit in fits for s in fit["save_s"]]
    save_refs = [r for fit in fits for r in fit["save_ref"]]
    metrics = {
        # loads are short and Python-bound, and a shared host now and then
        # runs them up to twice as fast; the 90th percentile does not depend
        # on whether a run saw such a stretch (see README)
        "setup_s": statistics.quantiles(setups, n=10, method="inclusive")[-1],
        "fit_s": statistics.median(fit["fit_s"][0] for fit in fits),
        "epoch_ms_p50": statistics.median(epochs),
        "epoch_ms_tail": tail_ms,
        # saves are Python-bound and track the host's pace; their time over
        # the reference task's beside them does not (see README)
        "save_ref": statistics.median(save_refs),
        "peak_rss_mb": statistics.median(fit["peak_rss_mb"] for fit in fits),
        "rss_after_epoch1_mb": statistics.median(
            fit["rss_after_epoch1_mb"] for fit in fits
        ),
    }
    details = {
        # mean over the run's datasets; reported, not gated (see README)
        "acc": statistics.fmean(fit["quality"]["acc"] for fit in fits),
        "nmi": statistics.fmean(fit["quality"]["nmi"] for fit in fits),
        "epoch_samples": len(epochs),
        "epoch_ms_tail_percentile": tail_pct,
        "setup_samples": len(setups),
        "setup_median_s": statistics.median(setups),
        "setup_min_s": min(setups),
        "save_s": statistics.median(saves),
        "save_samples": len(saves),
        "fits": len(fits),
    }
    return metrics, details


def per_layer(fits):
    untraced, traced = fits
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["fit_s"][0] - untraced["fit_s"][0]
    metrics["dataio.bytes_written"] = sum(
        path.stat().st_size for path in traced["out"].glob("*")
    )
    return metrics, {"traced_fit_s": traced["fit_s"][0],
                     "untraced_fit_s": untraced["fit_s"][0],
                     **traced["layer_details"]}


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "mvgc" / "__init__.py").is_file():
        print(f"error: no mvgc source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((HERE / "plan.json").read_text())
    if args.workload not in plan["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = plan["workloads"][args.workload]

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        run_dir.mkdir(parents=True)
        count = dataset_count(spec, args)
        with (run_dir / "generate.log").open("w") as log:
            subprocess.run(
                [sys.executable, str(HERE / "generate.py"), "--workload",
                 args.workload, "--seed", str(args.seed), "--count", str(count),
                 "--out", str(run_dir)],
                stdout=log, stderr=subprocess.STDOUT, timeout=120, check=True,
            )
        datasets = [run_dir / f"data{i}" for i in range(count)]
        inputs = {
            str(path.relative_to(run_dir)): sha256(path)
            for data in datasets for path in sorted(data.iterdir())
        }
        fits = run_fits(args, planned_fits(args, datasets), run_dir, started)
        check_fits(fits, spec)
        passed = [fit for fit in fits if not fit["problems"]]
        if args.trace:
            # layer figures stand even when a check failed; correct says so
            section = bench["per_layer"]
            traced_ok = (len(fits) == 2 and "layers" in fits[1]
                         and all(fit.get("fit_s") for fit in fits))
            measured = per_layer(fits) if traced_ok else None
            spans = run_dir / "fit1" / "spans.tsv"
            if spans.is_file():
                shutil.copyfile(spans, results / f"{run_dir.name}.spans.tsv")
        else:
            section = bench["end_to_end"]
            measured = end_to_end(passed) if passed else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(fits) - len(passed)
    for fit in fits:
        for problem in fit["problems"]:
            print(f"{fit['run_id']}: {problem}", file=sys.stderr)
    if measured is None:
        print("error: no fit passed its checks; nothing to report", file=sys.stderr)
        return 1
    values, details = measured

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": stamp,
        "environment": environment(),
        "inputs_sha256": inputs,
        "fail_ratio": failed / len(fits),
        "details": details,
        "metrics": metrics,
        "fits": [{k: (str(v.relative_to(run_dir)) if isinstance(v, Path) else v)
                  for k, v in fit.items()}
                 for fit in fits],
    }
    record_path = results / f"{run_dir.name}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"fits {len(fits)}  record {record_path.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':40s} {failed / len(fits):>14.6g} fraction "
          f"({failed} of {len(fits)} fits failed)")
    for key, value in details.items():
        print(f"  {key:40s} {value:>14.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(fits),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
