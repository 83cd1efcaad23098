"""specband benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 55 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
Stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it carry the machine facts, the behaviour
fingerprint and the quartiles behind each median. Exit code 0 means every
output checked out, 1 that the program failed or gave a wrong output, 2 that
the benchmark could not start (for instance, no ``src/specband``).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# redshifted runs like the others but is left out of BENCHMARK.json; see README.md
WORKLOADS = ("survey", "redshifted", "regression_2k")
SETUP_REPEATS = 2  # per iteration
MIN_ITERATIONS = 3  # a median of three ignores one iteration caught by a slow spell of the host
STARTUP_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_spectra_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "fileio.read_s": "s",
    "fileio.write_s": "s",
    "fileio.files_read": "count",
    "fileio.files_written": "count",
    "fileio.bytes_written": "bytes",
    "curves.rest_frame_s": "s",
    "curves.resample_s": "s",
    "smoothing.span_cv_s": "s",
    "smoothing.span_cv_calls": "count",
    "smoothing.smooth_s": "s",
    "smoothing.smooth_calls": "count",
    "smoothing.local_fits": "count",
    "smoothing.us_per_fit": "us",
    "smoothing.shared_grid_frac": "ratio",
    "pipeline.to_pair_s": "s",
    "pipeline.to_predictor_s": "s",
    "pipeline.self_s": "s",
    "pipeline.spectra_skipped": "count",
    "semimetrics.distance_s": "s",
    "semimetrics.distance_pairs": "count",
    "regression.kappa_cv_s": "s",
    "regression.loo_fits": "count",
    "regression.predict_s": "s",
    "regression.predict_calls": "count",
    "conformal.calibrate_s": "s",
    "conformal.band_s": "s",
    "conformal.band_calls": "count",
    "conformal.n2": "count",
    "fpca.fit_s": "s",
    "wild_bootstrap.bands_s": "s",
    "wild_bootstrap.replicates": "count",
    "evaluation.s": "s",
    "mockgen.generate_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def quartiles(values: list) -> dict:
    values = [float(v) for v in values]
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        if models:
            facts["cpu_model"] = models[0]
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    facts["blas_threads"] = _blas_threads()
    return facts


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def measure(seconds: float, setup, iterate) -> tuple[list, list]:
    """Set up SETUP_REPEATS times, then run one iteration on the inputs;
    repeat at least MIN_ITERATIONS times, then while the run ends nearer
    ``seconds`` with another round than without. Setting up between rounds
    spreads the set-up samples over the whole run, as the iterations are.
    Returns the set-up times and the iterations' results."""
    setup_times, results, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            t1 = time.perf_counter()
            inputs = setup()
            setup_times.append(time.perf_counter() - t1)
        results.append(iterate(inputs))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_ITERATIONS and elapsed + statistics.median(durations) / 2 > seconds:
            return setup_times, results


# ------------------------------------------------------------ end to end

def run_end_to_end(args, work: Path, wl, tally) -> tuple[dict, dict, dict]:
    import numpy as np

    sizes = wl.SIZES[args.scale][args.workload]
    if args.workload == "regression_2k":
        setup_times, runs = measure(
            args.seconds, lambda: wl.make_pairs(args.seed, sizes),
            lambda inputs: wl.library_iteration(*inputs, tally))
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    else:
        runner = wl.SubprocessRunner(work / "logs")
        setup_times, runs = measure(
            args.seconds, lambda: wl.make_catalog(work / "inputs", args.workload, args.seed, sizes, runner, tally),
            lambda catalog: wl.cli_iteration(catalog, work / "iteration", runner, tally))
        rss = [r[3] for r in runs]
    n_queries = sizes[1]

    stage_seconds = [r[0] for r in runs]
    fingerprints = [r[1] for r in runs]
    if any(fp != fingerprints[0] for fp in fingerprints[1:]):
        tally.problem("outputs differ between iterations of one run")
    # each spectrum or query is timed once per iteration; its latency is the
    # fastest of those, which filters the host's sub-second slow phases
    latencies = [r[2] for r in runs]
    keys = sorted(set.intersection(*(set(lat) for lat in latencies)))
    best = np.array([min(lat[k] for lat in latencies) for k in keys])
    if best.size == 0 or not np.all(best > 0):
        tally.problem("no positive per-spectrum latencies were recorded")
        best = np.ones(1)

    series = {
        "setup_s": setup_times,
        "fit_s": [s["fit"] for s in stage_seconds],
        "predict_spectra_per_s": [n_queries / s["predict"] for s in stage_seconds],
        "bootstrap_s": [s["bootstrap"] for s in stage_seconds],
        "eval_s": [s["eval"] for s in stage_seconds],
        "total_s": [sum(s.values()) for s in stage_seconds],
        "peak_rss_mb": rss,
    }
    detail = {name: quartiles(values) for name, values in series.items()}
    metrics = {name: d["median"] for name, d in detail.items() if name in END_TO_END_UNITS}
    # a throughput over every predict stage of the run: per-query times switch
    # between a fast and a slow mode for seconds at a time, and the median of
    # a few per-iteration rates picks one mode where the total averages them
    metrics["predict_spectra_per_s"] = n_queries * len(runs) / sum(s["predict"] for s in stage_seconds)
    # bootstrap_s, eval_s and the latency percentiles are reported but not
    # graded: across runs they jump between the host's fast and slow regimes
    # by more than any allowed bound (the stage times still count in total_s)
    detail["query_p50_ms"] = float(np.percentile(best, 50) * 1e3)
    detail["query_p98_ms"] = float(np.percentile(best, 98) * 1e3)
    detail["query_latency_samples"] = int(best.size)
    detail["iterations"] = len(runs)
    return metrics, fingerprints[0], detail


# ----------------------------------------------------------------- traced

def run_traced(args, work: Path, wl, tally) -> tuple[dict, dict, dict]:
    from tracing import Tracer, regression_facts, smoothing_facts

    sizes = wl.SIZES[args.scale][args.workload]
    tracer = Tracer()
    library = args.workload == "regression_2k"

    tracer.install()
    try:
        if library:
            config, train, queries = wl.make_pairs(args.seed, sizes)
        else:
            catalog = wl.make_catalog(work / "inputs", args.workload, args.seed, sizes,
                                      wl.InProcessRunner(tracer), tally)
    finally:
        tracer.uninstall()

    def iteration(runner_tracer):
        if library:
            return wl.library_iteration(config, train, queries, tally, tracer=runner_tracer)
        return wl.cli_iteration(catalog, work / "iteration", wl.InProcessRunner(runner_tracer), tally)

    plain = iteration(None)
    tracer.install()
    try:
        traced = iteration(tracer)
    finally:
        tracer.uninstall()
    if plain[1] != traced[1]:
        tally.problem("traced outputs differ from untraced outputs")
    fingerprint = {**traced[1], **chosen_spans(tracer)}

    startup = 0.0 if library else statistics.median(_startup_probe(wl.child_env()) for _ in range(STARTUP_PROBES))
    metrics, reasons = layer_metrics(tracer, smoothing_facts(tracer), regression_facts(tracer))
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_s"] = sum(traced[0].values()) - sum(plain[0].values())
    tracer.dump(work / "spans.json")
    detail = {"reasons": reasons, "absent_wrappers": tracer.absent,
              "stage_seconds_untraced": plain[0], "stage_seconds_traced": traced[0]}
    return metrics, fingerprint, detail


def chosen_spans(tracer) -> dict:
    """Spans picked by span CV in the traced iteration's fit stage, in call order."""
    spans = [result for name, index, _, _, result in tracer.calls
             if name == "smoothing.select_span_cv" and tracer.spans[index][5] == "fit"]
    if not spans:
        return {}
    return {"chosen_spans": dict(sorted(Counter(spans).items())),
            "chosen_spans_hash": hashlib.sha256(json.dumps(spans).encode()).hexdigest()[:16]}


def _startup_probe(env: dict) -> float:
    """Interpreter start plus ``import specband.cli``, in a fresh process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import specband.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def layer_metrics(tracer, smoothing: dict, regression: dict) -> tuple[dict, dict]:
    self_s = tracer.self_times()
    wall = tracer.wall_times()
    calls = tracer.span_counts()

    def total(prefixes):
        return sum(v for name, v in self_s.items() if name.startswith(prefixes))

    reads = ("fileio.read_", "fileio.load_")
    writes = ("fileio.write_", "fileio.save_")
    smoothing_s = total("smoothing.")
    skipped = sum(1 for name, _, _, _, result in tracer.calls
                  if name == "pipeline.covers_response_range" and result is False)
    metrics = {
        "fileio.read_s": total(reads),
        "fileio.write_s": total(writes),
        "fileio.files_read": sum(n for name, n in calls.items() if name.startswith(reads)),
        "fileio.files_written": tracer.counts["files_written"],
        "fileio.bytes_written": tracer.counts["bytes_written"],
        "curves.rest_frame_s": self_s.get("curves.to_rest_frame", 0.0),
        "curves.resample_s": self_s.get("curves.resample", 0.0),
        "smoothing.span_cv_s": self_s.get("smoothing.select_span_cv", 0.0),
        "smoothing.span_cv_calls": calls["smoothing.select_span_cv"],
        "smoothing.smooth_s": self_s.get("smoothing.smooth", 0.0),
        "smoothing.smooth_calls": calls["smoothing.smooth"],
        "smoothing.local_fits": smoothing["local_fits"],
        "smoothing.us_per_fit": smoothing_s * 1e6 / smoothing["local_fits"] if smoothing["local_fits"] else 0.0,
        "smoothing.shared_grid_frac": smoothing["shared"] / smoothing["calls"] if smoothing["calls"] else 0.0,
        "pipeline.to_pair_s": wall.get("pipeline.spectrum_to_pair", 0.0),
        "pipeline.to_predictor_s": wall.get("pipeline.spectrum_to_predictor", 0.0),
        "pipeline.self_s": total("pipeline."),
        "pipeline.spectra_skipped": skipped,
        "semimetrics.distance_s": total("semimetrics."),
        "semimetrics.distance_pairs": regression["distance_pairs"],
        "regression.kappa_cv_s": self_s.get("regression.select_kappa_cv", 0.0)
        + self_s.get("regression.kappa_cv_scores", 0.0),
        "regression.loo_fits": regression["loo_fits"],
        "regression.predict_s": total(("regression.predict", "regression.prediction_weights")),
        "regression.predict_calls": regression["predict_calls"],
        "conformal.calibrate_s": self_s.get("conformal.calibrate", 0.0),
        "conformal.band_s": self_s.get("conformal.band", 0.0) + self_s.get("conformal.contains", 0.0),
        "conformal.band_calls": calls["conformal.band"],
        "conformal.n2": regression["n2"],
        "fpca.fit_s": total("fpca."),
        "wild_bootstrap.bands_s": total("wild_bootstrap."),
        "wild_bootstrap.replicates": regression["replicates"],
        "evaluation.s": total("evaluation."),
        "mockgen.generate_s": total("mockgen."),
    }

    fit_self = tracer.self_times([i for i, span in enumerate(tracer.spans) if span[5] == "fit"])
    fit_wall = wall.get("stage.fit", 0.0)

    def share(*prefixes):
        """Self time of the given layers inside the fit stage, per fit second."""
        busy = sum(v for name, v in fit_self.items() if name.startswith(prefixes))
        return busy / fit_wall if fit_wall else 0.0

    reasons = {
        "fit_s_traced": fit_wall,
        "smoothing_share_of_fit": share("smoothing."),
        "kappa_cv_and_distance_share_of_fit": share("regression.select_kappa_cv", "regression.kappa_cv_scores",
                                                    "semimetrics."),
        "shared_grid_frac": metrics["smoothing.shared_grid_frac"],
    }
    return metrics, reasons


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specband" / "__init__.py").is_file():
        print(f"perfbench: no specband source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import specband
    import workloads as wl

    if Path(specband.__file__).resolve().parent != (SRC / "specband").resolve():
        print(f"perfbench: imported specband from {specband.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tally = wl.Tally()
    run = run_traced if args.trace else run_end_to_end
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        metrics, fingerprint, detail = run(args, work, wl, tally)
    except wl.BenchmarkError as err:
        tally.problem(str(err))
        metrics, fingerprint, detail = {}, {}, {}

    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        tally.problem(f"metrics not measured: {missing}")
    attempted, failed = tally.totals()
    correct = not tally.problems and failed == 0 and not missing
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "machine": machine_facts(), "fingerprint": fingerprint,
        "operations": {"attempted": tally.attempted, "failed": tally.failed, "skipped": tally.skipped,
                       "failed_frac": failed / attempted if attempted else 0.0},
        "problems": tally.problems, "detail": detail,
    }
    (work / "result.json").write_text(json.dumps({**report, "metrics": metrics}, indent=1) + "\n")
    for key in ("machine", "fingerprint", "operations", "detail"):
        print(f"perfbench {key} {json.dumps(report[key])}")
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                    if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
