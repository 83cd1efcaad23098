"""Inputs, stage runs and output checks for the three benchmark workloads.

``survey`` and ``redshifted`` run the specband CLI the way a user does: one
process per stage (fit, predict, bootstrap, eval), one after another. The
traced run drives the same stages in-process through click so that the
wrappers in ``tracing.py`` see every call. ``regression_2k`` drives the public
library API in-process on curve pairs built without smoothing.

Every timed call goes through the CLI or a name in ``specband.__all__``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ALPHA = 0.1  # the CLI's default miscoverage level
HELDOUT_SEED_OFFSET = 1_000_003
REDSHIFT_SEED_OFFSET = 2_000_003
Z_RANGE = (2.0, 3.5)
KEEP_FRACTION = 0.85
BOOTSTRAP_QUERIES = 3
BOOTSTRAP_REPLICATES = 500
COVERAGE_TAIL = 1e-3  # chance that a correct band still fails the coverage check
POLL_SECONDS = 0.002

# (training spectra or pairs, held-out spectra or queries) per scale
SIZES = {
    "full": {"survey": (18, 8), "redshifted": (18, 8), "regression_2k": (2000, 500)},
    "tiny": {"survey": (18, 4), "redshifted": (18, 4), "regression_2k": (200, 50)},
}


class BenchmarkError(Exception):
    """The program under test failed or produced a wrong output."""


@dataclass
class Tally:
    """Operations attempted, failed and skipped, by kind, behind ``failed``."""

    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def add(self, kind: str, attempted: int, failed: int = 0, skipped: int = 0) -> None:
        for table, count in ((self.attempted, attempted), (self.failed, failed), (self.skipped, skipped)):
            table[kind] = table.get(kind, 0) + count

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def totals(self) -> tuple[int, int]:
        """Operations attempted, and those that failed or were skipped."""
        return sum(self.attempted.values()), sum(self.failed.values()) + sum(self.skipped.values())


# ------------------------------------------------------------------- stages

@dataclass
class StageResult:
    name: str
    seconds: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0
    latencies: dict = field(default_factory=dict)  # spectrum id -> seconds


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SubprocessRunner:
    """One ``python -m specband`` process per stage, run to completion."""

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.env = child_env()

    def run(self, name: str, args: list, watch: tuple | None = None) -> StageResult:
        """Run a stage; ``watch=(directory, ids)`` times each id's first output."""
        self.log_dir.mkdir(parents=True, exist_ok=True)
        out_path = self.log_dir / f"{name}.out"
        err_path = self.log_dir / f"{name}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "specband", *map(str, args)],
                stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            latencies = {}
            try:
                if watch is None:
                    _, status, usage = os.wait4(proc.pid, 0)
                else:
                    status, usage, latencies = _watch_outputs(proc.pid, *watch)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        # the child was reaped by wait4, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StageResult(
            name, seconds, proc.returncode, out_path.read_text(), err_path.read_text(),
            rss_mb=usage.ru_maxrss / 1024.0, latencies=latencies,
        )


def _watch_outputs(pid: int, directory: Path, ids: list) -> tuple:
    """Wait for ``pid`` while polling ``directory`` for each id's outputs.

    A spectrum's latency is the time from the previous spectrum's first
    output file to its own; spectra first seen in the same poll share that
    interval equally, so a latency is never zero. The first spectrum has no
    predecessor: its wait is interpreter start, model load and calibration,
    which count in the stage time, so it gets no latency.
    """
    width = len(ids[0])
    pending = set(ids)
    last = None
    latencies = {}
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        now = time.perf_counter()
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            names = []
        new = {n[:width] for n in names if n[width:width + 1] == "_"} & pending
        if new:
            if last is not None:
                latencies.update(dict.fromkeys(new, (now - last) / len(new)))
            pending -= new
            last = now
        if done:
            return status, usage, latencies
        time.sleep(POLL_SECONDS)


class InProcessRunner:
    """Stages through ``specband.cli.main`` in this process, for tracing."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer

    def run(self, name: str, args: list, watch: tuple | None = None) -> StageResult:
        from specband import cli

        out, err = io.StringIO(), io.StringIO()
        code = 0
        span = self.tracer.span(f"stage.{name}") if self.tracer else contextlib.nullcontext()
        if self.tracer:
            self.tracer.stage = name
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main.main(args=[str(a) for a in args], prog_name="specband", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
        return StageResult(name, seconds, code, out.getvalue(), err.getvalue())


def require(result: StageResult, tally: Tally) -> StageResult:
    tally.add("stage_calls", 1, int(result.code != 0))
    if result.code != 0:
        raise BenchmarkError(
            f"stage {result.name} exited with code {result.code}: {result.stderr.strip()[-500:]}"
        )
    return result


# ------------------------------------------------------------------- inputs

@dataclass
class Catalog:
    train_manifest: Path
    heldout_manifest: Path
    heldout_ids: list
    queries: list  # (spectrum path, z) of the bootstrap queries
    n_train: int


def _write_table(path: Path, header: str, columns) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = (",".join(repr(float(v)) for v in row) for row in zip(*columns))
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def _read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _mock_model(config, seed: int):
    """The model ``specband mockgen --seed`` builds from the default config."""
    import specband

    return specband.synthetic_model(
        config.mock_grid(),
        n_components=config.mock_components,
        eigenvalue_decay=config.mock_eigenvalue_decay,
        variance_scale=config.mock_variance_scale,
        noise_level=config.mock_noise_level,
        seed=seed,
        normalization_wavelength=config.normalization_wavelength,
    )


def make_catalog(work: Path, workload: str, seed: int, sizes: tuple, runner, tally: Tally) -> Catalog:
    """Training catalog from ``specband mockgen``, held-out mocks on another seed.

    The held-out mocks come from the same mock model as the training catalog
    (checked against mockgen's own truth file) but from the draws of a
    different seed. On ``redshifted`` every spectrum is moved to the observed
    frame at its own z, keeping a random share of its samples.
    """
    import specband

    n_train, n_test = sizes
    if work.exists():
        shutil.rmtree(work)
    train_dir = work / "train"
    require(runner.run("mockgen", ["mockgen", "--count", n_train, "--seed", seed, "--out", train_dir]), tally)
    train_manifest = train_dir / "manifest.json"
    document = json.loads(train_manifest.read_text())

    config = specband.PipelineConfig()
    model = _mock_model(config, seed)
    first = document["spectra"][0]
    mockgen_truth = _read_table(train_dir / first["truth_path"])[:, 1]
    regenerated = specband.generate(model, 1, seed)[0].true_continuum.values
    if not np.array_equal(mockgen_truth, regenerated):
        raise BenchmarkError("held-out mock model differs from the one mockgen used")

    heldout_dir = work / "heldout"
    entries = []
    for i, real in enumerate(specband.generate(model, n_test, seed + HELDOUT_SEED_OFFSET)):
        name = f"held_{i:04d}"
        spectrum = real.noisy
        _write_table(heldout_dir / "spectra" / f"{name}.csv", "wavelength,flux,noise_sd",
                     (spectrum.wavelengths, spectrum.flux, spectrum.noise_sd))
        _write_table(heldout_dir / "truths" / f"{name}.csv", "wavelength,flux",
                     (real.true_continuum.grid.points, real.true_continuum.values))
        entries.append({"id": name, "path": f"spectra/{name}.csv", "z": 0.0,
                        "truth_path": f"truths/{name}.csv"})
    heldout_manifest = heldout_dir / "manifest.json"
    heldout_manifest.write_text(json.dumps({**document, "spectra": entries}, indent=1) + "\n")

    if workload == "redshifted":
        rng = np.random.default_rng(seed + REDSHIFT_SEED_OFFSET)
        train_manifest = _observed_frame(train_manifest, work / "train_observed", rng)
        heldout_manifest = _observed_frame(heldout_manifest, work / "heldout_observed", rng)

    records = json.loads(heldout_manifest.read_text())["spectra"]
    return Catalog(
        train_manifest=train_manifest,
        heldout_manifest=heldout_manifest,
        heldout_ids=[r["id"] for r in records],
        queries=[(heldout_manifest.parent / r["path"], float(r["z"])) for r in records[:BOOTSTRAP_QUERIES]],
        n_train=n_train,
    )


def _observed_frame(manifest: Path, out_dir: Path, rng: np.random.Generator) -> Path:
    """Rewrite each spectrum at its own z with a random subset of its samples."""
    document = json.loads(manifest.read_text())
    entries = []
    for entry in document["spectra"]:
        table = _read_table(manifest.parent / entry["path"])
        z = float(rng.uniform(*Z_RANGE))
        keep = np.sort(rng.choice(len(table), size=round(KEEP_FRACTION * len(table)), replace=False))
        rows = table[keep]
        path = out_dir / "spectra" / f"{entry['id']}.csv"
        _write_table(path, "wavelength,flux,noise_sd", (rows[:, 0] * (1.0 + z), rows[:, 1], rows[:, 2]))
        truth = (manifest.parent / entry["truth_path"]).resolve()
        entries.append({"id": entry["id"], "path": os.path.relpath(path, out_dir), "z": z,
                        "truth_path": os.path.relpath(truth, out_dir)})
    out = out_dir / "manifest.json"
    out.write_text(json.dumps({**document, "spectra": entries}, indent=1) + "\n")
    return out


def make_pairs(seed: int, sizes: tuple):
    """Training pairs and queries from the mocks' true continua, no smoothing.

    Each continuum is resampled onto the pipeline's predictor and response
    grids, and both curves are divided by the predictor value at the grid
    point nearest the normalization wavelength, as the pipeline does.
    """
    import specband

    config = specband.PipelineConfig()
    model = _mock_model(config, seed)
    predictor_grid, response_grid = config.predictor_grid(), config.response_grid()
    norm_index = int(np.argmin(np.abs(predictor_grid.points - config.normalization_wavelength)))

    def pairs(count: int, draw_seed: int):
        out = []
        for real in specband.generate(model, count, draw_seed):
            x = specband.resample(real.true_continuum, predictor_grid)
            y = specband.resample(real.true_continuum, response_grid)
            ref = x.values[norm_index]
            out.append(specband.CurvePair(x.with_values(x.values / ref), y.with_values(y.values / ref)))
        return out

    n_train, n_test = sizes
    return config, pairs(n_train, seed), pairs(n_test, seed + HELDOUT_SEED_OFFSET)


# ------------------------------------------------------------ the CLI flow

def cli_iteration(catalog: Catalog, it_dir: Path, runner, tally: Tally) -> tuple[dict, dict, list, float]:
    """fit -> predict -> bootstrap (one call per query) -> eval; returns stage
    seconds, fingerprint, per-spectrum latencies and the stages' peak RSS in MB."""
    if it_dir.exists():
        shutil.rmtree(it_dir)
    it_dir.mkdir(parents=True)
    model, pred_dir = it_dir / "model.json", it_dir / "predictions"
    fit = require(runner.run("fit", ["fit", "--manifest", catalog.train_manifest, "--out", model]), tally)
    predict = require(runner.run("predict", ["predict", "--model", model, "--manifest", catalog.heldout_manifest,
                                             "--out", pred_dir], watch=(pred_dir, catalog.heldout_ids)), tally)
    boots = [
        require(runner.run("bootstrap", ["bootstrap", "--model", model, "--spectrum", path, "--redshift", repr(z),
                                         "--out", it_dir / f"bootstrap_{i}"]), tally)
        for i, (path, z) in enumerate(catalog.queries)
    ]
    evaluate = require(runner.run("eval", ["eval", "--predictions", pred_dir, "--manifest", catalog.heldout_manifest,
                                           "--out", it_dir / "eval"]), tally)
    tally.add("training_spectra", catalog.n_train, skipped=fit.stderr.count("skipping"))
    fingerprint = _check_cli_outputs(catalog, it_dir, fit.stdout, evaluate.stdout, tally)
    seconds = {"fit": fit.seconds, "predict": predict.seconds,
               "bootstrap": sum(b.seconds for b in boots), "eval": evaluate.seconds}
    rss = max(s.rss_mb for s in (fit, predict, evaluate, *boots))
    return seconds, fingerprint, predict.latencies, rss


def _check_cli_outputs(catalog: Catalog, it_dir: Path, fit_out: str, eval_out: str, tally: Tally) -> dict:
    match = re.search(r"selected kappa=(\d+) on n=(\d+)", fit_out)
    if not match:
        raise BenchmarkError(f"fit did not report the selected kappa: {fit_out!r}")
    kappa, n_fit = int(match.group(1)), int(match.group(2))

    pred_dir = it_dir / "predictions"
    predictions, gaps, half_widths, missing = [], [], [], 0
    for spectrum_id in catalog.heldout_ids:
        try:
            values = _read_table(pred_dir / f"{spectrum_id}_prediction.csv")[:, 1]
            band = json.loads((pred_dir / f"{spectrum_id}_band.json").read_text())
        except (OSError, ValueError) as err:
            missing += 1
            tally.problem(f"no prediction or band for {spectrum_id}: {err}")
            continue
        centre = np.asarray(band["center"], dtype=float)
        half = band["half_width"]
        if band.get("degenerate") or half is None or not math.isfinite(half):
            tally.problem(f"band for {spectrum_id} is degenerate or not finite")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(centre))):
            tally.problem(f"non-finite prediction or band centre for {spectrum_id}")
        predictions.append(values)
        gaps.append(float(np.max(np.abs(values - centre))) if centre.shape == values.shape else math.inf)
        half_widths.append(half)
    tally.add("heldout_spectra", len(catalog.heldout_ids), missing)

    match = re.search(r"band coverage ([0-9.]+) over (\d+) spectra", eval_out)
    summary = it_dir / "eval" / "relative_error_summary.csv"
    if not match or not summary.exists():
        raise BenchmarkError(f"eval did not report coverage and errors: {eval_out!r}")
    n_eval = int(match.group(2))
    tally.add("evaluated_spectra", len(catalog.heldout_ids), skipped=len(catalog.heldout_ids) - n_eval)
    covered = round(float(match.group(1)) * n_eval)
    mean_rel_err = float(np.mean(_read_table(summary)[:, 1]))
    n2 = n_fit - n_fit // 2
    return _quality(kappa, mean_rel_err, covered, n_eval, n2, predictions, tally, extra={
        "max_abs_prediction_minus_band_centre": max(gaps, default=math.inf),
        "band_half_width": half_widths[0] if half_widths else None,
    })


def coverage_lower_bound(m: int, n2: int, alpha: float = ALPHA, tail: float = COVERAGE_TAIL) -> int:
    """Fewest covered of ``m`` fresh draws a valid split-conformal band allows.

    With k = floor((n2 + 1) * alpha) the coverage given the calibration set
    is Beta(n2 + 1 - k, k) for continuous exchangeable scores, so the count
    covered is beta-binomial; return the largest L with P(count < L) <= tail.
    """
    k = math.floor((n2 + 1) * alpha)
    if k < 1:
        return 0
    a, b = n2 + 1 - k, k
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    cdf = 0.0
    for x in range(m + 1):
        log_pmf = (math.lgamma(m + 1) - math.lgamma(x + 1) - math.lgamma(m - x + 1)
                   + math.lgamma(x + a) + math.lgamma(m - x + b) - math.lgamma(m + a + b) - log_beta)
        cdf += math.exp(log_pmf)
        if cdf > tail:
            return x
    return m


def _quality(kappa, mean_rel_err, covered, m, n2, predictions, tally, extra) -> dict:
    bound = coverage_lower_bound(m, n2)
    if covered < bound:
        tally.problem(f"coverage {covered}/{m} below the beta-binomial bound {bound}/{m}")
    if not (math.isfinite(mean_rel_err) and 0.0 < mean_rel_err < 0.5):
        tally.problem(f"mean relative error {mean_rel_err} outside (0, 0.5)")
    stacked = np.round(np.stack(predictions), 10) if predictions else np.zeros(0)
    return {
        "kappa": kappa,
        "mean_rel_err": mean_rel_err,
        "coverage": covered / m,
        "coverage_count": covered,
        "coverage_lower_bound": bound,
        "n": m,
        "n2": n2,
        "prediction_hash_1e-10": hashlib.sha256((stacked + 0.0).tobytes()).hexdigest()[:16],
        **extra,
    }


# ---------------------------------------------------------- the library flow

def library_iteration(config, train: list, queries: list, tally: Tally, tracer=None) -> tuple[dict, dict, list]:
    """select_kappa_cv -> FittedRegression -> calibrate -> per-query predict +
    band + contains -> evaluation -> fit_fpca + bootstrap_bands."""
    import specband as sb

    semimetric, kernel = sb.SemimetricSpec.parse(config.semimetric), sb.KernelSpec()
    candidates = [k for k in config.kappa_candidates if 1 <= k <= len(train) - 1]
    seconds = {}

    def stage(name):
        if tracer:
            tracer.stage = name
            return tracer.span(f"stage.{name}")
        return contextlib.nullcontext()

    start = time.perf_counter()
    with stage("fit"):
        kappa = sb.select_kappa_cv(train, semimetric, kernel, candidates)
        fitted = sb.FittedRegression(tuple(train), semimetric, kernel, kappa)
    seconds["fit"] = time.perf_counter() - start

    latencies, predictions, bands, hits, failed = {}, [], [], 0, 0
    start = time.perf_counter()
    with stage("predict"):
        calibration = sb.calibrate(train, config.alpha, semimetric, kernel,
                                   config.kappa_candidates, split_seed=config.seed)
        for i, query in enumerate(queries):
            if tracer:
                tracer.item = f"query_{i:04d}"
            t0 = time.perf_counter()
            prediction = sb.predict(fitted, query.predictor)
            band = sb.band(calibration, query.predictor)
            latencies[i] = time.perf_counter() - t0
            if band.degenerate or not np.all(np.isfinite(prediction.values)):
                failed += 1
            hits += bool(sb.contains(band, query.response))
            predictions.append(prediction)
            bands.append(band)
    seconds["predict"] = time.perf_counter() - start
    tally.add("queries", len(queries), failed)
    if tracer:
        tracer.item = None

    truths = [q.response for q in queries]
    start = time.perf_counter()
    with stage("eval"):
        rel = sb.summarize([sb.relative_error(p, t) for p, t in zip(predictions, truths)])
        sb.summarize([sb.plain_error(p, t) for p, t in zip(predictions, truths)])
        coverage = sb.coverage_rate(bands, truths)
    seconds["eval"] = time.perf_counter() - start

    envelopes = []
    start = time.perf_counter()
    with stage("bootstrap"):
        fpca = sb.fit_fpca([p.response for p in train], config.bootstrap_components)
        boot_config = sb.WildBootstrapConfig(replicates=BOOTSTRAP_REPLICATES, components=config.bootstrap_components,
                                             alpha=config.alpha, seed=config.seed)
        for query in queries[:BOOTSTRAP_QUERIES]:
            result = sb.bootstrap_bands(train, fitted, query.predictor, fpca, boot_config)
            envelopes.append(np.concatenate([result.envelope_lower.values, result.envelope_upper.values]))
    seconds["bootstrap"] = time.perf_counter() - start
    tally.add("bootstrap_queries", BOOTSTRAP_QUERIES, int(not np.all(np.isfinite(envelopes))))

    if hits != round(coverage * len(queries)):
        tally.problem(f"contains() found {hits} covered but coverage_rate gives {coverage}")
    fingerprint = _quality(kappa, rel.overall_mean, hits, len(queries), calibration.n2,
                           [p.values for p in predictions], tally, extra={
        "calibration_kappa": calibration.trained_model.kappa,
        "band_half_width": bands[0].half_width,
        "bootstrap_hash_1e-10": hashlib.sha256((np.round(np.stack(envelopes), 10) + 0.0).tobytes()).hexdigest()[:16],
    })
    return seconds, fingerprint, latencies
