"""The benchmark's workloads: their inputs, measured phases and output checks.

Every workload runs the same phases; what differs is the model, the data and
the share of the run's seconds each phase gets:

* setup     -- a fresh interpreter imports deepself, parses the workload's
               config and builds its model (and its band-pass filter when the
               config filters); ``setup_s`` is the median probe.
* steps     -- blocks of 12 steps of a model that starts fresh and trains
               for as many steps as one fit takes, each forward + backward +
               update timed on its own.
* fits      -- ``training.train`` as a user calls it, then
               ``training.predict_batches`` and a checkpoint save/load round
               trip.
* pipeline  -- the CLI on files: preprocess (log-mel, then scalogram),
               train, evaluate, evaluate --cv --jobs 2, predict and fuse.

The benchmark never clears gradients itself, so deepself's training runs
exactly as a user would see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import inputs
from tracing import SpanTable, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
N_CLASSES = 2
UAR_FLOOR = 65.0  # percent; two balanced classes, so 50 is chance
PIPELINE_FOLDS = 4
CV_JOBS = 2
SETUP_SHARE = 0.05  # of the run's seconds; each probe takes ~0.2 s
STEP_BLOCK = 12  # steps timed between two speed measurements

RNN_MODEL = """\
[model]
type = rnn
[rnn]
type = gru
direction = bi
hidden_layers = 2
hidden_nodes = 32
"""

CNN1D_MODEL = """\
[model]
type = cnn
[cnn]
channels = 8, 16
kernel = 8, 4
stride = 4, 4
padding = 0, 0
[nn]
hidden_layers = 1
hidden_nodes = 32
"""

CNN2D_MODEL = """\
[model]
type = cnn
[cnn]
channels = 8, 16
kernel = 3, 3
stride = 2, 2
padding = 0, 0
[nn]
hidden_layers = 1
hidden_nodes = 32
"""

PREPROCESS = """\
[preprocess]
filter = on
low = 0.5
high = 30
feature = logmel
window_size = 256
hop_size = 128
n_mels = 26
n_voices = 12
[data]
sample_rate = {rate}
"""
# the second preprocess pass: ~49 scales x 4097 samples, ~0.8 MB per .dsfm
SCALOGRAM = {"feature": "scalogram", "fmin": 2.0, "fmax": 32.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str               # INI sections of the steps/fits model
    data: str                # "sequences", "series" or "logmel"
    learning_rate: float
    fit_epochs: int
    n_train: int
    n_dev: int
    pipeline_files: int
    pipeline_epochs: int
    shares: tuple            # share of the run's seconds for steps, fits, pipeline
    probe_steps: int         # steps of the traced-vs-untraced comparison


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "rnn-train",
            "bi-GRU 2x32 on [64 x 8]: ~5k tape records per forward, so per-op overhead in tensor and models dominates",
            RNN_MODEL, "sequences", 0.01, 2, 96, 32, 48, 60, (0.4, 0.2, 0.4), 8),
        Workload(
            "cnn-train",
            "1-D CNN on [1 x 4097] EEG-like series: 10 tape records per forward, time goes to conv, BLAS and Adam",
            CNN1D_MODEL, "series", 0.001, 8, 96, 32, 48, 60, (0.25, 0.35, 0.4), 30),
        Workload(
            "cli-pipeline",
            "the CLI on files: preprocess (log-mel, scalogram), train, evaluate, cv, predict, fuse; dsp, data and I/O dominate",
            CNN2D_MODEL, "logmel", 0.001, 16, 96, 32, 48, 60, (0.1, 0.1, 0.8), 30),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    workdir: Path
    library_ini: Path        # config of the steps/fits model
    pipeline_ini: Path
    raw_manifest: Path
    series: np.ndarray       # raw pipeline series [files x 4097], float64
    x_train: np.ndarray
    y_train: np.ndarray
    x_dev: np.ndarray
    y_dev: np.ndarray


def general_section(lr: float, epochs: int, seed: int) -> str:
    return (f"[general]\nlearning_rate = {lr}\nbatch_size = 16\nepochs = {epochs}\n"
            f"optimizer = adam\n[run]\nseed = {seed}\njobs = 1\n")


def transform(deepself, row: np.ndarray, cfg):
    """What ``preprocess`` computes for one raw series under ``cfg``, as the CLI computes it."""
    dsp = deepself.dsp
    rate = cfg.sample_rate
    signal = dsp.apply_iir(dsp.Signal(row[None, :], rate),
                           dsp.design_butterworth_bandpass(cfg.filter_low, cfg.filter_high, rate))
    fmax = cfg.fmax if cfg.fmax is not None else rate / 2.0
    if cfg.feature == "logmel":
        return dsp.log_mel_spectrogram(signal, cfg.window_size, cfg.hop_size, cfg.n_mels,
                                       cfg.fmin, fmax)
    return dsp.scalogram(signal, cfg.n_voices, cfg.fmin, fmax)


def make_inputs(deepself, w: Workload, seed: int, workdir: Path) -> Inputs:
    """Everything the run feeds to deepself, from the seed alone."""
    workdir.mkdir(parents=True, exist_ok=True)
    pipeline_ini = workdir / "pipeline.ini"
    pipeline_ini.write_text(general_section(0.001, w.pipeline_epochs, seed) + CNN2D_MODEL
                            + PREPROCESS.format(rate=inputs.SAMPLE_RATE))
    library_ini = workdir / "model.ini"
    library_ini.write_text(general_section(w.learning_rate, w.fit_epochs, seed) + w.model
                           + ("" if w.data != "logmel" else PREPROCESS.format(rate=inputs.SAMPLE_RATE)))

    rng = np.random.default_rng([seed, 0])
    n = w.n_train + w.n_dev
    labels = inputs.balanced_labels(rng, n)
    if w.data == "sequences":
        x = inputs.sequences(rng, labels)
    elif w.data == "series":
        x = inputs.eeg_series(rng, labels)[:, None, :].astype(np.float32)
    else:  # the pipeline's log-mel maps [N x 1 x 26 x 31], computed in memory
        cfg = deepself.config.load_config(library_ini)
        x = np.stack([transform(deepself, row, cfg).values[None]
                      for row in inputs.eeg_series(rng, labels)]).astype(np.float32)

    pipe_rng = np.random.default_rng([seed, 1])
    pipe_labels = inputs.balanced_labels(pipe_rng, w.pipeline_files)
    series = inputs.eeg_series(pipe_rng, pipe_labels)
    raw_manifest = inputs.write_raw_dataset(series, pipe_labels, workdir / "raw", PIPELINE_FOLDS)
    return Inputs(workdir, library_ini, pipeline_ini, Path(raw_manifest), series,
                  x[: w.n_train], labels[: w.n_train], x[w.n_train:], labels[w.n_train:])


def input_digest(inp: Inputs) -> str:
    """sha256 over every generated file and array, to show inputs repeat exactly."""
    h = hashlib.sha256()
    for path in sorted(p for p in inp.workdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(inp.workdir)).encode())
        h.update(path.read_bytes())
    for arr in (inp.x_train, inp.y_train, inp.x_dev, inp.y_dev):
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Ledger:
    """Attempted and failed operations; an output check that fails fails its operation."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds), or (None, None) when it raises."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failing operation is counted, not fatal to the run
            traceback.print_exc(file=sys.stderr)
            self.fail(what, "raised")
            return None, None
        return out, time.perf_counter() - start

    def fail(self, what: str, problem: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {problem}")

    def check(self, what: str, problem):
        """``problem`` is None when the output is right, else what is wrong with it."""
        if problem:
            self.fail(what, problem)
        return not problem


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_probabilities(labels, probs, n: int):
    if probs.shape != (n, N_CLASSES):
        return f"probabilities have shape {probs.shape}"
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > 1e-5:
        return f"a probability row sums to 1 {worst:+.2e}"
    if not np.array_equal(labels, np.argmax(probs, axis=1)):
        return "labels differ from the argmax of their probabilities"
    return None


def check_uar(losses, dev_uars):
    if not all(math.isfinite(v) for v in losses):
        return f"non-finite train loss in {losses}"
    if max(dev_uars) < UAR_FLOOR:
        return f"best dev UAR {max(dev_uars):.1f} is below the floor {UAR_FLOOR}"
    return None


def read_history(path):
    """(train losses, dev UARs) from a ``history.csv`` the CLI wrote."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()[1:]]
    return [float(r[1]) for r in rows], [float(r[3]) for r in rows]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def batch(inp: Inputs, i: int, size: int = 16):
    n_batches = len(inp.y_train) // size
    rows = slice((i % n_batches) * size, (i % n_batches + 1) * size)
    return inp.x_train[rows], inp.y_train[rows]


def train_step(ds, model, state, xb, yb, lr, tape_records=None) -> float:
    """One step exactly as ``training.train`` takes it, through the same lookups."""
    tr = ds.training
    logits, _ = tr.forward(model, xb)
    loss, _ = tr.softmax_cross_entropy(logits, yb)
    if tape_records is not None:
        tape_records.append(len(ds.tensor.active_tape()))
    tr.backward(loss)
    grads = {name: p.grad for name, p in model.params.items()
             if p.requires_grad and p.grad is not None}
    tr.adam_step(model.params, grads, state, lr)
    return loss.item()


def probe_logits(ds, spec, inp: Inputs, steps: int, lr: float):
    """Train a fresh model for ``steps`` steps, then its logits on the dev set.

    Used to show that tracing leaves model outputs bit-identical; returns the
    logits and each step's seconds.
    """
    model = ds.models.init_model(spec)
    state = ds.training.AdamState()
    seconds = []
    for i in range(steps):
        xb, yb = batch(inp, i)
        start = time.perf_counter()
        train_step(ds, model, state, xb, yb, lr)
        seconds.append(time.perf_counter() - start)
    with ds.tensor.no_grad():
        logits, _ = ds.models.forward(model, inp.x_dev)
    return logits.data.copy(), seconds


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Runner:
    """The phases of one run and what they measured.

    ``measure`` interleaves the phases in small units (a probe, a block of
    steps, a fit, a pipeline iteration), always running next the phase that
    is furthest behind its share of the time, so each metric samples the
    whole run.  Every sample is kept raw together with the machine's speed
    factor (calibration.py) around its unit; a probe measures its own.
    """

    def __init__(self, ds, w: Workload, inp: Inputs, tracer=None):
        self.ds, self.w, self.inp, self.tracer = ds, w, inp, tracer
        self.cfg = ds.config.load_config(inp.library_ini)
        self.spec = self.cfg.model_spec(inp.x_train.shape[1:], N_CLASSES)
        self.ledger = Ledger()
        self.outcome: dict = {}
        self.counts = {"tape_records": [], "checkpoint_bytes": [], "dsfm_bytes": [],
                       "cli_s": [], "cv_jobs": CV_JOBS}
        # raw samples, and for each the machine's speed factor when it was taken
        self.samples = {"setup_s": [], "step_ms": [], "train_rates": [], "predict_rates": []}
        self.factors = {name: [] for name in self.samples}
        self.scaled_iterations: list = []  # counts["cli_s"] with each command's time scaled
        self._stepper = None  # [model, Adam state, steps taken] of the steps phase
        self.digests: dict = {}

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def measure(self, seconds: float) -> float:
        units = {"setup": (self.setup_unit, SETUP_SHARE),
                 **{name: (unit, share * (1.0 - SETUP_SHARE)) for name, unit, share in zip(
                     ("steps", "fits", "pipeline"),
                     (self.steps_unit, self.fit_unit, self.pipeline_unit), self.w.shares)}}
        used = dict.fromkeys(units, 0.0)
        runs = dict.fromkeys(units, 0)
        # a throwaway model takes the warm-up step, so no timed step pays for first calls
        self.ledger.call("warm-up step", train_step, self.ds, self.ds.models.init_model(self.spec),
                         self.ds.training.AdamState(), *batch(self.inp, 0), self.cfg.learning_rate)
        start = time.perf_counter()
        while min(runs.values()) == 0 or time.perf_counter() - start < seconds:
            name = min(units, key=lambda n: used[n] / units[n][1])
            began = time.perf_counter()
            units[name][0]()
            used[name] += time.perf_counter() - began
            runs[name] += 1
            if self.ledger.failed:
                break
        return time.perf_counter() - start

    def setup_unit(self):
        """Set-up seconds in a fresh interpreter (import, config, init_model, filter design)."""
        self.ledger.attempted += 1
        src = Path(self.ds.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src), str(self.inp.library_ini),
             json.dumps(list(self.inp.x_train.shape[1:])), str(N_CLASSES)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self.ledger.fail("setup probe", f"exit code {proc.returncode}")
            return
        seconds, factor = proc.stdout.split()
        self.samples["setup_s"].append(float(seconds))
        self.factors["setup_s"].append(float(factor))

    def steps_unit(self):
        """The next STEP_BLOCK timed steps of a model that, like a fit, starts fresh
        and trains for as many steps as one fit takes."""
        ds, inp, lr = self.ds, self.inp, self.cfg.learning_rate
        if self._stepper is None or self._stepper[2] >= self.w.fit_epochs * (len(inp.y_train) // 16):
            self._stepper = [ds.models.init_model(self.spec), ds.training.AdamState(), 0]
        model, state, done = self._stepper
        tape = self.counts["tape_records"] if self.tracer else None
        before = calibration.speed_factor()
        first = len(self.samples["step_ms"])
        for i in range(done, done + STEP_BLOCK):
            xb, yb = batch(inp, i)
            with self._span("bench.step"):
                loss, secs = self.ledger.call("train step", train_step, ds, model, state,
                                              xb, yb, lr, tape)
            if secs is None:
                return
            self.ledger.check("train step", None if math.isfinite(loss) else f"loss {loss}")
            self.samples["step_ms"].append(secs * 1e3)
        self._stepper[2] = done + STEP_BLOCK
        factor = (before + calibration.speed_factor()) / 2.0
        self.factors["step_ms"].extend([factor] * (len(self.samples["step_ms"]) - first))

    def fit_unit(self):
        """``train`` on a fresh model, ``predict_batches``, and a checkpoint round trip."""
        ds, inp, ledger, tr = self.ds, self.inp, self.ledger, self.ds.training
        model = ds.models.init_model(self.spec)
        x_eval = np.concatenate([inp.x_train, inp.x_dev])
        before = calibration.speed_factor()
        result, secs = ledger.call("train", tr.train, model, (inp.x_train, inp.y_train),
                                   (inp.x_dev, inp.y_dev), self.cfg.train_config())
        if secs is None:
            return
        between = calibration.speed_factor()
        # the batch size the CLI's evaluate and predict use
        predicted, predict_secs = ledger.call("predict_batches", tr.predict_batches, result[0],
                                              x_eval, self.cfg.batch_size)
        after = calibration.speed_factor()
        model, history = result
        ledger.check("train", check_uar([r.train_loss for r in history],
                                        [r.dev_uar for r in history]))
        self.outcome["train_loss"] = history[-1].train_loss
        self.outcome["dev_uar"] = max(r.dev_uar for r in history)
        self.outcome["dev_uar_last_epoch"] = history[-1].dev_uar
        self.samples["train_rates"].append(len(inp.y_train) * self.cfg.epochs / secs)
        self.factors["train_rates"].append((before + between) / 2.0)
        if predict_secs is not None:
            ledger.check("predict_batches", check_probabilities(*predicted, len(x_eval)))
            self.samples["predict_rates"].append(len(x_eval) / predict_secs)
            self.factors["predict_rates"].append((between + after) / 2.0)

        ckpt = inp.workdir / "fit.ckpt"
        _, secs = ledger.call("save_checkpoint", tr.save_checkpoint, model, {"bench": "fit"}, ckpt)
        loaded, _ = ledger.call("load_checkpoint", tr.load_checkpoint, ckpt)
        if secs is not None and loaded is not None:
            self.counts["checkpoint_bytes"].append(ckpt.stat().st_size)
            with ds.tensor.no_grad():
                before, _ = ds.models.forward(model, inp.x_dev)
                after, _ = ds.models.forward(loaded[0], inp.x_dev)
            ledger.check("checkpoint round trip", None if np.array_equal(before.data, after.data)
                         else "logits changed across save/load")

    # -- the CLI pipeline --------------------------------------------------

    def cli(self, what: str, argv: list, seconds: dict, scaled: dict) -> bool:
        """One CLI invocation, in process; adds its time to ``seconds[what]``, scaled to ``scaled[what]``."""
        def main():
            try:
                return self.ds.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                return exc.code

        before = calibration.speed_factor()
        with self._span(f"bench.cli.{what}"), contextlib.redirect_stdout(io.StringIO()):
            code, secs = self.ledger.call(f"deepself {what}", main)
        if secs is None:
            return False
        factor = (before + calibration.speed_factor()) / 2.0
        seconds[what] = seconds.get(what, 0.0) + secs
        scaled[what] = scaled.get(what, 0.0) + secs * factor
        return self.ledger.check(f"deepself {what}", None if code == 0 else f"exit code {code}")

    def check_feature_maps(self, manifest: Path, cfg):
        """Each .dsfm equals the in-memory transform to float32 rounding.

        The first iteration compares values; later ones must reproduce its bytes.
        """
        ds, inp = self.ds, self.inp
        rows = ds.data.load_manifest(manifest).rows
        if len(rows) != len(inp.series):
            self.ledger.check(f"preprocess {cfg.feature}", f"{len(rows)} files for {len(inp.series)} inputs")
            return
        for i, row in enumerate(rows):
            self.counts["dsfm_bytes"].append(os.path.getsize(row.path))
            key = (cfg.feature, i)
            if key in self.digests:
                self.ledger.check(row.raw_path, None if file_digest(row.path) == self.digests[key]
                                  else "bytes differ from the first iteration")
                continue
            expected = transform(ds, inp.series[i], cfg).values.astype(np.float32)
            got = ds.dsp.read_feature_map(row.path).values
            self.ledger.check(row.raw_path, None if np.array_equal(got, expected.astype(np.float64))
                              else "values differ from the in-memory transform")
            self.digests[key] = file_digest(row.path)

    def pipeline_unit(self):
        """The whole CLI sequence once, in a fresh directory."""
        inp, ledger = self.inp, self.ledger
        out = inp.workdir / "pipeline"
        shutil.rmtree(out, ignore_errors=True)
        cfg = ["--config", str(inp.pipeline_ini)]
        scalogram_flags = [arg for key, value in SCALOGRAM.items() for arg in (f"--{key}", str(value))]
        logmel, scal, run = out / "logmel", out / "scalogram", out / "run"
        manifest = logmel / "manifest.csv"
        ckpt = str(run / "best.ckpt")
        predictions, copy, fused = run / "predictions.csv", run / "copy.csv", out / "fused.csv"
        seconds: dict = {}
        scaled: dict = {}

        if not (self.cli("preprocess", ["preprocess", *cfg, "--manifest", str(inp.raw_manifest),
                                        "--output-dir", str(logmel)], seconds, scaled)
                and self.cli("preprocess", ["preprocess", *cfg, "--manifest", str(inp.raw_manifest),
                                            "--output-dir", str(scal), *scalogram_flags], seconds, scaled)):
            return
        logmel_cfg = self.ds.config.load_config(inp.pipeline_ini)
        self.check_feature_maps(manifest, logmel_cfg)
        self.check_feature_maps(scal / "manifest.csv",
                                self.ds.config.apply_overrides(logmel_cfg, SCALOGRAM))

        if not self.cli("train", ["train", *cfg, "--manifest", str(manifest),
                                  "--output-dir", str(run)], seconds, scaled):
            return
        history, _ = ledger.call("read history.csv", read_history, run / "history.csv")
        if history is None:
            return
        ledger.check("deepself train", check_uar(*history))
        self.outcome["pipeline_dev_uar"] = max(history[1])

        ok = (self.cli("evaluate", ["evaluate", *cfg, "--manifest", str(manifest),
                                    "--checkpoint", ckpt], seconds, scaled)
              and self.cli("cv", ["evaluate", *cfg, "--manifest", str(manifest), "--cv",
                                  "--jobs", str(CV_JOBS), "--output-dir", str(out / "cv")], seconds, scaled)
              and self.cli("predict", ["predict", *cfg, "--manifest", str(manifest),
                                       "--checkpoint", ckpt, "--output-dir", str(run)], seconds, scaled))
        if not ok:
            return
        pset, _ = ledger.call("read predictions.csv", self.ds.evaluation.read_predictions, predictions)
        if pset is None:
            return
        ledger.check("deepself predict", check_probabilities(pset.labels, pset.probabilities,
                                                             len(inp.series)))
        shutil.copyfile(predictions, copy)
        if self.cli("fuse", ["fuse", str(predictions), str(copy), "--output", str(fused)], seconds, scaled):
            ledger.check("deepself fuse", None if fused.read_bytes() == predictions.read_bytes()
                         else "fusing two identical files changed them")
            self.counts["cli_s"].append(seconds)
            self.scaled_iterations.append(scaled)

    def end_to_end(self, scaled: bool = True) -> dict:
        """The metrics, scaled to the nominal machine speed unless ``scaled`` is false."""
        def times(name):
            factors = self.factors[name] if scaled else [1.0] * len(self.samples[name])
            return [v * f for v, f in zip(self.samples[name], factors)]

        def rates(name):
            factors = self.factors[name] if scaled else [1.0] * len(self.samples[name])
            return [v / f for v, f in zip(self.samples[name], factors)]

        iterations = self.scaled_iterations if scaled else self.counts["cli_s"]
        files = len(self.inp.series)
        step_ms = times("step_ms")
        return {
            "setup_s": (statistics.median(times("setup_s")), "s"),
            "train_samples_per_s": (statistics.median(rates("train_rates")), "1/s"),
            "train_step_ms_p50": (percentile(step_ms, 50), "ms"),
            "train_step_ms_p90": (percentile(step_ms, 90), "ms"),
            "predict_samples_per_s": (statistics.median(rates("predict_rates")), "1/s"),
            "preprocess_files_per_s": (statistics.median(2 * files / it["preprocess"] for it in iterations), "1/s"),
            "cv_s": (statistics.median(it["cv"] for it in iterations), "s"),
            "pipeline_s": (statistics.median(sum(it.values()) for it in iterations), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


def environment(seed: int, root: Path) -> dict:
    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
                    or k == "VECLIB_MAXIMUM_THREADS"},
        "git_commit": git_commit(root),
        "seed": seed,
    }


def git_commit(root: Path):
    """HEAD of the checkout read from .git directly; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run(ds, name: str, seed: int, seconds: float, trace: bool, root: Path, workload=None) -> dict:
    """One benchmark run; returns the result line's fields, the per-layer metrics and details."""
    w = workload or WORKLOADS[name]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{w.name}-{seed}-{os.getpid()}"
    try:
        inp = make_inputs(ds, w, seed, workdir)
        runner = Runner(ds, w, inp, Tracer() if trace else None)
        trace_info, per_layer = {}, {}
        if trace:
            lr = runner.cfg.learning_rate
            plain, plain_s = probe_logits(ds, runner.spec, inp, w.probe_steps, lr)
            runner.tracer.install(ds)
            try:
                traced, traced_s = probe_logits(ds, runner.spec, inp, w.probe_steps, lr)
                runner.ledger.attempted += 1
                runner.ledger.check("traced probe", None if np.array_equal(plain, traced)
                                    else "traced logits differ from untraced ones")
                measured_s = runner.measure(seconds)
            finally:
                runner.tracer.uninstall()
            spans, names = runner.tracer.spans(), runner.tracer.names
            np.savez(out_dir / f"spans-{w.name}.npz", spans=spans, names=np.array(names))
            if not runner.ledger.failed:
                per_layer = layer_metrics(SpanTable(spans, names), runner.counts)
            untraced, traced = statistics.median(plain_s) * 1e3, statistics.median(traced_s) * 1e3
            trace_info = {"probe_steps": w.probe_steps, "untraced_step_ms_p50": untraced,
                          "traced_step_ms_p50": traced, "overhead_ms_per_step": traced - untraced}
        else:
            measured_s = runner.measure(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = runner.ledger
    details = {
        "workload": w.name,
        "measured_s": measured_s,
        "samples": {**{name: len(values) for name, values in runner.samples.items()},
                    "pipeline_iterations": len(runner.counts["cli_s"]),
                    "pipeline_files": len(inp.series)},
        "speed_factor_median": statistics.median([f for fs in runner.factors.values() for f in fs] or [0.0]),
        "unscaled": {} if ledger.failed else {k: v for k, (v, _) in runner.end_to_end(False).items()},
        "train_loss": runner.outcome.get("train_loss"),
        "dev_uar": runner.outcome.get("dev_uar"),
        "dev_uar_last_epoch": runner.outcome.get("dev_uar_last_epoch"),
        "pipeline_dev_uar": runner.outcome.get("pipeline_dev_uar"),
        "failed_ops_ratio": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.failures,
        "trace": trace_info,
        "environment": environment(seed, root),
    }
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {} if ledger.failed else runner.end_to_end(),
            "per_layer": per_layer, "details": details}
