"""End-to-end CLI tests: preprocess / train / evaluate / predict / fuse."""

import contextlib
import csv
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import deepself
from deepself import cli
from deepself.cli import (
    _is_sequence_config,
    _is_sequence_model,
    _resolve_config,
    build_parser,
    main,
)
from deepself.config import DOMAINS, METAVARS, MODEL_TYPES, SCHEMA, RunConfig
from deepself.data import load_csv_series, load_manifest, load_sample, load_wav_pcm16
from deepself.dsp import Signal, apply_iir, design_butterworth_bandpass, read_feature_map, scalogram
from deepself.evaluation import read_predictions, uar_from_labels
from deepself.errors import ConfigError
from deepself.training import load_checkpoint, save_checkpoint
from iir_oracle import oracle_apply_iir
from wav_writer import write_wav_pcm16


def run(argv):
    """Invoke the CLI in-process; argparse usage errors become exit codes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def write_series(path, values):
    with open(path, "w") as fh:
        fh.writelines(f"{v!r}\n" for v in values)


def toy_dataset(root, n_per_class=6, length=20, folds=False, labels=("neg", "pos")):
    """Trivially separable two-class series dataset with train/dev/test splits."""
    rows = []
    for k, (label, base) in enumerate(zip(labels, (-0.5, 0.5))):
        for i in range(n_per_class):
            name = f"class{k}_{i}.csv"
            write_series(root / name, [base + 0.01 * i] * length)
            if folds:
                rows.append((name, label, "", i % 3))
            else:
                split = "train" if i < n_per_class - 2 else ("dev" if i == n_per_class - 2 else "test")
                rows.append((name, label, split, ""))
    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "label", "split", "fold"])
        w.writerows(rows)
    return manifest


def noisy_dataset(root, n=24, length=32, k=4):
    """Two overlapping classes of noisy series in ``k`` folds, so the fold UARs depend on the seeds."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n):
        write_series(root / f"s{i}.csv", (0.2 * (i % 2 - 0.5) + rng.standard_normal(length)).tolist())
        rows.append((f"s{i}.csv", "ab"[i % 2], "", i % k))
    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "label", "split", "fold"])
        w.writerows(rows)
    return manifest


def base_config(root, manifest, epochs=30, extra=""):
    cfg = root / "run.cfg"
    cfg.write_text(f"""
[general]
learning_rate = 0.05
batch_size = 4
epochs = {epochs}
optimizer = adam

[model]
type = nn

[nn]
hidden_layers = 1
hidden_nodes = 8

[data]
manifest = {manifest}
sample_rate = 100

[run]
seed = 3
output_dir = {root / 'out'}
{extra}""")
    return cfg


class TestPreprocess:
    def make_wavs(self, root, n=4, sr=100, length=200):
        import struct
        rows = []
        t = np.arange(length) / sr
        for i in range(n):
            clip = np.round(np.sin(2 * np.pi * (5 + i) * t) * 16000).astype("<i2")
            payload = clip.tobytes()
            header = struct.pack(
                "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                b"fmt ", 16, 1, 1, sr, sr * 2, 2, 16, b"data", len(payload))
            (root / f"w{i}.wav").write_bytes(header + payload)
            rows.append((f"w{i}.wav", "a" if i % 2 else "b"))
        manifest = root / "m.csv"
        with open(manifest, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path", "label"])
            w.writerows(rows)
        return manifest

    def test_passthrough_copies(self, tmp_path, capsys):
        manifest = self.make_wavs(tmp_path)
        out = tmp_path / "pre"
        assert run(["preprocess", "--manifest", str(manifest),
                    "--output-dir", str(out)]) == 0
        derived = load_manifest(out / "manifest.csv")
        assert len(derived.rows) == 4
        for row, src in zip(derived.rows, ["w0.wav", "w1.wav", "w2.wav", "w3.wav"]):
            assert Path(row.path).read_bytes() == (tmp_path / src).read_bytes()
        assert "wrote 4 files" in capsys.readouterr().out

    def test_failed_passthrough_write_keeps_previous_copy(self, tmp_path, monkeypatch, capsys):
        manifest = self.make_wavs(tmp_path)
        out = tmp_path / "pre"
        argv = ["preprocess", "--manifest", str(manifest), "--output-dir", str(out)]
        assert run(argv) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        real_atomic_write = cli.atomic_write

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def write(self, blob):
                self.fh.write(blob[:len(blob) // 2])
                raise OSError("disk full")

        @contextlib.contextmanager
        def failing_atomic_write(target):
            with real_atomic_write(target) as fh:
                yield HalfWritten(fh)

        monkeypatch.setattr(cli, "atomic_write", failing_atomic_write)
        assert run(argv) == 1
        assert "disk full" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_logmel_rows_equal_n_mels(self, tmp_path):
        manifest = self.make_wavs(tmp_path)
        out = tmp_path / "pre"
        assert run(["preprocess", "--manifest", str(manifest), "--output-dir", str(out),
                    "--feature", "logmel", "--n-mels", "12",
                    "--window-size", "64", "--hop-size", "32"]) == 0
        derived = load_manifest(out / "manifest.csv")
        for row in derived.rows:
            assert read_feature_map(row.path).rows == 12

    def test_bad_cutoffs_exit_nonzero(self, tmp_path, capsys):
        manifest = self.make_wavs(tmp_path)
        code = run(["preprocess", "--manifest", str(manifest),
                    "--output-dir", str(tmp_path / "pre"),
                    "--filter", "on", "--filter-low", "30", "--filter-high", "0.5"])
        assert code != 0
        assert "low must be < high" in capsys.readouterr().err

    def test_values_beyond_float32_exit_1_naming_the_map(self, tmp_path, capsys):
        t = np.arange(200) / 100.0
        for i in range(2):
            write_series(tmp_path / f"s{i}.csv", (1e20 * np.sin(2 * np.pi * (3 + i) * t)).tolist())
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label\ns0.csv,a\ns1.csv,b\n")
        out = tmp_path / "pre"
        code = run(["preprocess", "--manifest", str(manifest), "--output-dir", str(out),
                    "--feature", "spectrogram", "--window-size", "64", "--hop-size", "32",
                    "--sample-rate", "100"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{out / '00000_s0.dsfm'}: feature values beyond the float32 range" in err
        assert os.listdir(out) == []

    def test_scalogram_maps_match_api_and_repeat_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        t = np.arange(1000) / 173.61
        for i in range(2):
            series = rng.standard_normal(1000) + np.sin(2 * np.pi * (6 + i) * t)
            write_series(tmp_path / f"s{i}.csv", series.tolist())
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label\ns0.csv,a\ns1.csv,b\n")
        args = ["preprocess", "--manifest", str(manifest), "--sample-rate", "173.61",
                "--filter", "on", "--filter-low", "0.5", "--filter-high", "30",
                "--feature", "scalogram", "--fmin", "2", "--fmax", "32"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(args + ["--output-dir", str(first)]) == 0
        assert run(args + ["--output-dir", str(second)]) == 0
        cascade = design_butterworth_bandpass(0.5, 30.0, 173.61)
        rows = load_manifest(first / "manifest.csv").rows
        for src, row in zip(["s0.csv", "s1.csv"], rows, strict=True):
            expected = scalogram(apply_iir(load_csv_series(tmp_path / src, 173.61), cascade), 12, 2.0, 32.0)
            got = read_feature_map(row.path)
            np.testing.assert_array_equal(got.values, expected.values.astype(np.float32).astype(np.float64))
            np.testing.assert_array_equal(got.row_axis_hz, expected.row_axis_hz)
            assert (second / row.raw_path).read_bytes() == Path(row.path).read_bytes()

    def test_filter_matches_api(self, tmp_path):
        manifest = self.make_wavs(tmp_path, n=2)
        # a filtered 2-channel clip must load in the [C x N] layout of its raw file
        t = np.arange(400) / 100.0
        write_wav_pcm16(Signal(0.5 * np.stack([np.sin(2 * np.pi * 4 * t), np.cos(2 * np.pi * 7 * t)]), 100.0),
                        tmp_path / "w2.wav")
        with open(manifest, "a", newline="") as fh:
            csv.writer(fh).writerow(["w2.wav", "a"])
        out = tmp_path / "pre"
        assert run(["preprocess", "--manifest", str(manifest), "--output-dir", str(out),
                    "--filter", "on", "--filter-low", "2", "--filter-high", "10"]) == 0
        derived = load_manifest(out / "manifest.csv")
        cascade = design_butterworth_bandpass(2.0, 10.0, 100.0)
        for src, row in zip(["w0.wav", "w1.wav", "w2.wav"], derived.rows, strict=True):
            raw = load_sample(tmp_path / src)
            expected = oracle_apply_iir(load_wav_pcm16(tmp_path / src), cascade)
            got = load_sample(row.path)
            assert got.shape == raw.shape == expected.shape
            np.testing.assert_allclose(got, expected, atol=1e-7)

    def test_jobs_parallel_matches_serial(self, tmp_path, capsys):
        manifest = self.make_wavs(tmp_path, n=6)
        band_pass = ["--filter", "on", "--filter-low", "2", "--filter-high", "30"]
        for name, options in (("logmel", ["--feature", "logmel", "--window-size", "64", "--hop-size", "32",
                                          "--n-mels", "8", *band_pass]),
                              ("scalogram", ["--feature", "scalogram", "--fmin", "2", "--fmax", "32", *band_pass]),
                              ("copy", ["--feature", "none", "--filter", "off"])):
            outputs = []
            for jobs in ("1", "2", "3"):
                out = tmp_path / f"{name}{jobs}"
                assert run(["preprocess", "--manifest", str(manifest), *options, "--output-dir", str(out),
                            "--jobs", jobs]) == 0
                outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
                assert multiprocessing.active_children() == []
            assert len(outputs[0]) == 7 and "manifest.csv" in outputs[0]  # six maps or copies
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        (tmp_path / "w1.wav").write_bytes(b"RIFF\x04\x00\x00\x00WAVE")  # row 1 runs in worker 1 at --jobs 2
        capsys.readouterr()
        errors = []
        for jobs in ("1", "2"):
            assert run(["preprocess", "--manifest", str(manifest), "--feature", "logmel", "--window-size", "64",
                        "--hop-size", "32", "--output-dir", str(tmp_path / f"bad{jobs}"), "--jobs", jobs]) == 1
            errors.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        assert errors[1] == errors[0] and errors[0].startswith("error: ") and "w1.wav" in errors[0]

    def test_killed_worker_names_its_rows(self, tmp_path, monkeypatch, capsys):
        caller, load = os.getpid(), cli.load_signal

        def load_or_die(path, rate):
            if os.getpid() != caller and path.endswith("w1.wav"):
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path, rate)

        monkeypatch.setattr(cli, "load_signal", load_or_die)
        assert run(["preprocess", "--manifest", str(self.make_wavs(tmp_path, n=6)), "--feature", "spectrogram",
                    "--window-size", "64", "--hop-size", "32", "--output-dir", str(tmp_path / "pre"),
                    "--jobs", "2"]) == 1
        assert capsys.readouterr().err == ("error: the worker running rows 1, 3, 5 exited with code -9 "
                                           "before reporting them all\n")
        assert multiprocessing.active_children() == []

    def test_jobs_start_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise RuntimeError(f"thread {thread.name} started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert run(["preprocess", "--manifest", str(self.make_wavs(tmp_path)),
                    "--feature", "spectrogram", "--window-size", "64", "--hop-size", "32",
                    "--output-dir", str(tmp_path / "pre"), "--jobs", "3"]) == 0
        cfg = base_config(tmp_path, toy_dataset(tmp_path, folds=True), epochs=2)
        assert run(["evaluate", "--config", str(cfg), "--cv", "--jobs", "2"]) == 0

    def test_preprocess_then_train_on_features(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path)
        out = tmp_path / "pre"
        assert run(["preprocess", "--manifest", str(manifest), "--output-dir", str(out),
                    "--sample-rate", "100",
                    "--filter", "on", "--filter-low", "2", "--filter-high", "30"]) == 0
        cfg = base_config(tmp_path, out / "manifest.csv")
        assert run(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "best.ckpt").exists()


class TestTrain:
    def test_writes_checkpoint_history_and_prints_uar(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path)
        cfg = base_config(tmp_path, manifest, epochs=10)
        assert run(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "best dev UAR:" in out
        ckpt = tmp_path / "out" / "best.ckpt"
        history = tmp_path / "out" / "history.csv"
        assert ckpt.exists() and history.exists()
        with open(history) as fh:
            records = list(csv.DictReader(fh))
        assert [r["epoch"] for r in records] == [str(e) for e in range(1, 11)]  # one row per epoch
        model, meta = load_checkpoint(ckpt)
        dev_uars = [float(r["dev_uar"]) for r in records]
        assert dev_uars.count(max(dev_uars)) > 1  # so the tie rule shows: the first maximum is kept
        assert meta["epoch"] == records[dev_uars.index(max(dev_uars))]["epoch"]
        assert meta["classes"] == "neg,pos"
        assert model.n_classes == 2

    def test_deterministic_checkpoint_bytes(self, tmp_path):
        manifest = toy_dataset(tmp_path)
        cfg = base_config(tmp_path, manifest, epochs=5)
        run(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "a")])
        run(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "best.ckpt").read_bytes() == \
            (tmp_path / "b" / "best.ckpt").read_bytes()

    def test_checkpoint_bytes_do_not_depend_on_the_directory(self, tmp_path):
        ckpts = []
        for name in ("one", "two"):
            root = tmp_path / name
            root.mkdir()
            cfg = base_config(root, toy_dataset(root), epochs=5)
            assert run(["train", "--config", str(cfg)]) == 0
            ckpts.append((root / "out" / "best.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_bad_optimizer_is_usage_error(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path)
        code = run(["train", "--manifest", str(manifest), "--optimizer", "nadam"])
        assert code == 2
        err = capsys.readouterr().err
        assert "sgd" in err and "adam" in err

    def test_rnn_model_type(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path, length=10)
        cfg = base_config(tmp_path, manifest, epochs=5, extra="")
        assert run(["train", "--config", str(cfg), "--model-type", "rnn",
                    "--rnn-type", "gru", "--rnn-hidden-nodes", "6"]) == 0
        model, meta = load_checkpoint(tmp_path / "out" / "best.ckpt")
        assert model.spec.input_shape == (10, 1)  # sequence layout [T x F]
        assert meta["model_type"] == "rnn"
        assert "sequence_layout" not in meta  # the embedded spec decides the layout

    @pytest.mark.parametrize("model_type", MODEL_TYPES)
    def test_config_and_spec_agree_on_sequence_layout(self, model_type):
        cfg = replace(RunConfig(), model_type=model_type)
        assert _is_sequence_config(cfg) == _is_sequence_model(cfg.model_spec((1, 16), 2))

    def test_no_split_needs_dev_fraction(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path, folds=True)  # fold column, no splits
        cfg = base_config(tmp_path, manifest, epochs=2)
        assert run(["train", "--config", str(cfg)]) == 1
        assert "--dev-fraction" in capsys.readouterr().err
        assert run(["train", "--config", str(cfg), "--dev-fraction", "0.25"]) == 0

    @pytest.mark.parametrize("value", ["0", "1", "-0.25", "1.5"])
    def test_dev_fraction_outside_the_open_unit_interval_is_a_config_error(self, tmp_path, capsys, value):
        ini = tmp_path / "split.cfg"
        ini.write_text(f"[data]\ndev_fraction = {value}\n")
        parser = build_parser()
        for argv in (["train", f"--dev-fraction={value}"], ["train", "--config", str(ini)]):
            with pytest.raises(ConfigError, match=r"dev_fraction must lie in \(0, 1\)"):
                _resolve_config(parser.parse_args(argv))
        manifest = toy_dataset(tmp_path, folds=True)
        assert run(["train", "--manifest", str(manifest), f"--dev-fraction={value}"]) == 1
        assert "dev_fraction must lie in (0, 1)" in capsys.readouterr().err

    def test_dev_fraction_from_the_file_carves_the_flags_split(self, tmp_path):
        cfg = base_config(tmp_path, toy_dataset(tmp_path, folds=True), epochs=3)
        ini = tmp_path / "split.cfg"
        ini.write_text(cfg.read_text().replace("[data]\n", "[data]\ndev_fraction = 0.25\n"))
        assert run(["train", "--config", str(cfg), "--dev-fraction", "0.25", "--output-dir", str(tmp_path / "flag")]) == 0
        assert run(["train", "--config", str(ini), "--output-dir", str(tmp_path / "file")]) == 0
        for name in ("best.ckpt", "history.csv"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    def test_missing_manifest_config(self, tmp_path, capsys):
        assert run(["train"]) == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"], ids=["comma", "newline", "carriage-return"])
    def test_class_name_the_checkpoint_cannot_store_is_rejected(self, tmp_path, capsys, label):
        cfg = base_config(tmp_path, toy_dataset(tmp_path, labels=(label, "c")), epochs=2)
        assert run(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(label) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def train_toy(self, tmp_path, epochs=40):
        manifest = toy_dataset(tmp_path)
        cfg = base_config(tmp_path, manifest, epochs=epochs)
        assert run(["train", "--config", str(cfg)]) == 0
        return cfg, tmp_path / "out" / "best.ckpt", manifest

    def test_memorized_dataset_prints_uar_100(self, tmp_path, capsys):
        cfg, ckpt, _ = self.train_toy(tmp_path)
        capsys.readouterr()
        assert run(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "UAR: 100.00" in out
        assert "true\\pred" in out  # confusion matrix header

    def test_class_set_mismatch(self, tmp_path, capsys):
        cfg, ckpt, manifest = self.train_toy(tmp_path, epochs=2)
        # add a third label unseen at train time
        write_series(tmp_path / "zzz.csv", [0.0] * 20)
        with open(manifest, "a", newline="") as fh:
            csv.writer(fh).writerow(["zzz.csv", "zebra", "test", ""])
        capsys.readouterr()
        assert run(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        assert "zebra" in capsys.readouterr().err

    def test_checkpoint_without_class_names_takes_the_manifests_class_order(self, tmp_path, capsys):
        rows = []
        for label, base in zip("abc", (-1.0, 0.0, 1.0)):
            for i in range(6):
                write_series(tmp_path / f"{label}{i}.csv", [base + 0.01 * i] * 20)
                split = "train" if i < 4 else "dev" if i == 4 else "test"
                if not (split == "test" and label == "b"):  # the test split lacks class b
                    rows.append((f"{label}{i}.csv", label, split, ""))
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows([("path", "label", "split", "fold"), *rows])
        cfg = base_config(tmp_path, manifest, epochs=40)
        assert run(["train", "--config", str(cfg)]) == 0
        named = tmp_path / "out" / "best.ckpt"
        model, metadata = load_checkpoint(named)
        assert metadata["classes"] == "a,b,c"
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(model, {}, bare)
        uars = []
        for ckpt in (named, bare):
            capsys.readouterr()
            assert run(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
            uars.append(re.search(r"^UAR: (.+)$", capsys.readouterr().out, re.MULTILINE).group(1))
        assert uars[1] == uars[0] == "100.00"

    def test_checkpoint_with_invalid_utf8_is_one_error_line(self, tmp_path, capsys):
        cfg, ckpt, _ = self.train_toy(tmp_path, epochs=1)
        blob = bytearray(ckpt.read_bytes())
        blob[12] = 0xFF  # first byte of the embedded model spec
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not valid UTF-8" in err
        assert len(err.splitlines()) == 1

    def test_needs_checkpoint_or_cv(self, tmp_path, capsys):
        cfg, _, _ = self.train_toy(tmp_path, epochs=2)
        assert run(["evaluate", "--config", str(cfg)]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_cv_writes_fold_report(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path, folds=True)
        cfg = base_config(tmp_path, manifest, epochs=5)
        assert run(["evaluate", "--config", str(cfg), "--cv"]) == 0
        out = capsys.readouterr().out
        assert "fold 0:" in out and "fold 2:" in out and "mean UAR:" in out
        report = tmp_path / "out" / "fold_report.csv"
        with open(report) as fh:
            lines = list(csv.reader(fh))
        assert len(lines) == 5  # header + 3 folds + mean

    def test_cv_report_does_not_depend_on_jobs(self, tmp_path):
        for name, dataset in (("separable", lambda root: toy_dataset(root, folds=True)), ("noisy", noisy_dataset)):
            root = tmp_path / name
            root.mkdir()
            cfg = base_config(root, dataset(root), epochs=3)
            reports = []
            for jobs in ("1", "2", "3"):
                out = root / f"out{jobs}"
                assert run(["evaluate", "--config", str(cfg), "--cv", "--jobs", jobs,
                            "--output-dir", str(out)]) == 0
                reports.append((out / "fold_report.csv").read_bytes())
            assert reports[1] == reports[0] and reports[2] == reports[0]
        fold_uars = [line.split(",")[1] for line in reports[0].decode().splitlines()[1:-1]]
        assert len(set(fold_uars)) > 1  # the noisy folds' UARs differ, so a jobs-dependent report shows

    def test_cv_workers_log_at_the_cli_level(self, tmp_path):
        cfg = base_config(tmp_path, toy_dataset(tmp_path, folds=True), epochs=2)
        env = {**os.environ, "DEEPSELF_LOG": "info",
               "PYTHONPATH": str(Path(deepself.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-m", "deepself.cli", "evaluate", "--config", str(cfg),
                               "--cv", "--jobs", "2"], env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        epochs = re.findall(r"^INFO deepself\.training: epoch (\d):", proc.stderr, re.MULTILINE)
        assert sorted(epochs) == ["1", "1", "1", "2", "2", "2"]  # 3 folds, the middle one in worker 1
        assert re.search(r"^INFO deepself\.evaluation: fold 1: test UAR .+, worker 1$", proc.stderr,
                         re.MULTILINE)

    def test_cv_without_fold_column(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path)  # split column only
        cfg = base_config(tmp_path, manifest, epochs=2)
        assert run(["evaluate", "--config", str(cfg), "--cv"]) == 1
        assert "fold" in capsys.readouterr().err


class TestPredict:
    def test_predictions_file_shape(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path)
        cfg = base_config(tmp_path, manifest, epochs=5)
        assert run(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "best.ckpt"
        assert run(["predict", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        pset = read_predictions(tmp_path / "out" / "predictions.csv")
        assert len(pset.ids) == 12  # one row per manifest row
        assert pset.probabilities.shape == (12, 2)
        np.testing.assert_allclose(pset.probabilities.sum(axis=1), 1.0, atol=1e-6)

    def test_shape_mismatch_names_expected_shape(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path)
        cfg = base_config(tmp_path, manifest, epochs=2)
        assert run(["train", "--config", str(cfg)]) == 0
        short = toy_dataset(tmp_path / "short", length=9) if (tmp_path / "short").mkdir() is None else None
        code = run(["predict", "--config", str(cfg), "--checkpoint",
                    str(tmp_path / "out" / "best.ckpt"),
                    "--manifest", str(tmp_path / "short" / "manifest.csv")])
        assert code == 1
        assert "[B x 1 x 20]" in capsys.readouterr().err

    def test_output_elsewhere_creates_no_output_dir(self, tmp_path, monkeypatch):
        cfg = base_config(tmp_path, toy_dataset(tmp_path), epochs=2)
        assert run(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "run")]) == 0
        monkeypatch.chdir(tmp_path)
        assert run(["predict", "--config", str(cfg), "--checkpoint", str(tmp_path / "run" / "best.ckpt"),
                    "--output", os.path.join("sub", "p.csv")]) == 0
        assert len(read_predictions(tmp_path / "sub" / "p.csv").ids) == 12
        assert not (tmp_path / "out").exists()

    def test_unreadable_checkpoint(self, tmp_path, capsys):
        manifest = toy_dataset(tmp_path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert run(["predict", "--manifest", str(manifest),
                    "--checkpoint", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestFuse:
    def write_pset(self, path, ids, probs):
        from deepself.evaluation import PredictionSet, write_predictions
        write_predictions(PredictionSet.from_probabilities(ids, np.asarray(probs)), path)

    def test_single_input_values_equal(self, tmp_path):
        ids = ["a", "b", "c"]
        probs = [[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]
        self.write_pset(tmp_path / "p.csv", ids, probs)
        out = tmp_path / "fused.csv"
        assert run(["fuse", str(tmp_path / "p.csv"), "--output", str(out)]) == 0
        fused = read_predictions(out)
        assert fused.ids == ids
        np.testing.assert_allclose(fused.probabilities, probs, rtol=1e-12)

    def test_complementary_experts_mean(self, tmp_path):
        # expert A is sure about class 0, expert B about class 1
        ids = [f"s{i}" for i in range(8)]
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        a = [[0.9, 0.1]] * 4 + [[0.55, 0.45]] * 4
        b = [[0.45, 0.55]] * 4 + [[0.1, 0.9]] * 4
        self.write_pset(tmp_path / "a.csv", ids, a)
        self.write_pset(tmp_path / "b.csv", ids, b)
        out = tmp_path / "fused.csv"
        assert run(["fuse", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                    "--output", str(out)]) == 0
        fused = read_predictions(out)
        uar_a = uar_from_labels(truth, np.argmax(a, axis=1), 2)
        uar_b = uar_from_labels(truth, np.argmax(b, axis=1), 2)
        uar_f = uar_from_labels(truth, fused.labels, 2)
        assert uar_f >= max(uar_a, uar_b)
        assert uar_f == 100.0

    def test_vote_mode(self, tmp_path):
        ids = ["x", "y"]
        for name, probs in (("a", [[0.6, 0.4], [0.4, 0.6]]),
                            ("b", [[0.7, 0.3], [0.8, 0.2]]),
                            ("c", [[0.2, 0.8], [0.9, 0.1]])):
            self.write_pset(tmp_path / f"{name}.csv", ids, probs)
        out = tmp_path / "fused.csv"
        assert run(["fuse", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                    str(tmp_path / "c.csv"), "--mode", "vote",
                    "--output", str(out)]) == 0
        fused = read_predictions(out)
        np.testing.assert_array_equal(fused.labels, [0, 0])  # majorities 2/3

    def test_mismatched_ids_name_offender(self, tmp_path, capsys):
        self.write_pset(tmp_path / "a.csv", ["a", "b"], [[0.6, 0.4]] * 2)
        self.write_pset(tmp_path / "b.csv", ["a", "c"], [[0.6, 0.4]] * 2)
        assert run(["fuse", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                    "--output", str(tmp_path / "f.csv")]) == 1
        err = capsys.readouterr().err
        assert "'b'" in err and "'c'" in err


    @pytest.mark.parametrize("mode", ["mean", "vote"])
    def test_impossible_label_is_one_error_line(self, tmp_path, mode, capsys):
        self.write_pset(tmp_path / "a.csv", ["a", "b"], [[0.6, 0.4]] * 2)
        (tmp_path / "b.csv").write_text("id,label,prob_0,prob_1\na,0,0.6,0.4\nb,5,0.6,0.4\n")
        assert run(["fuse", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--mode", mode,
                    "--output", str(tmp_path / "f.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "label 5 for id 'b'" in err
        assert len(err.splitlines()) == 1


class TestOutputDirectories:
    """A command writing into a directory that does not exist creates it, parents included."""

    def test_commands_write_into_missing_nested_directories(self, tmp_path):
        nested = tmp_path / "a" / "b"
        cfg = base_config(tmp_path, toy_dataset(tmp_path), epochs=2)
        assert run(["train", "--config", str(cfg), "--output-dir", str(nested / "train")]) == 0
        assert sorted(os.listdir(nested / "train")) == ["best.ckpt", "history.csv"]
        assert run(["predict", "--config", str(cfg), "--checkpoint", str(nested / "train" / "best.ckpt"),
                    "--output-dir", str(nested / "predict")]) == 0
        predictions = nested / "predict" / "predictions.csv"
        assert run(["fuse", str(predictions), "--output-dir", str(nested / "fuse")]) == 0
        assert read_predictions(nested / "fuse" / "fused.csv").ids == read_predictions(predictions).ids
        folds = tmp_path / "folds"
        folds.mkdir()
        cv_cfg = base_config(folds, toy_dataset(folds, folds=True), epochs=2)
        assert run(["evaluate", "--config", str(cv_cfg), "--cv", "--output-dir", str(nested / "cv")]) == 0
        assert os.listdir(nested / "cv") == ["fold_report.csv"]
        assert not (tmp_path / "out").exists() and not (folds / "out").exists()

    def test_fuse_defaults_to_the_configs_output_dir(self, tmp_path, monkeypatch):
        TestFuse().write_pset(tmp_path / "p.csv", ["a", "b"], [[0.6, 0.4], [0.3, 0.7]])
        monkeypatch.chdir(tmp_path)
        assert run(["fuse", "p.csv"]) == 0
        assert read_predictions(tmp_path / RunConfig().output_dir / "fused.csv").ids == ["a", "b"]


class TestEnvironmentAndHelp:
    def test_invalid_log_level(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DEEPSELF_LOG", "verbose")
        assert run(["fuse", "whatever.csv"]) == 2
        assert "DEEPSELF_LOG" in capsys.readouterr().err

    def test_debug_level_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEEPSELF_LOG", "debug")
        ids = ["a"]
        from deepself.evaluation import PredictionSet, write_predictions
        write_predictions(PredictionSet.from_probabilities(ids, np.array([[1.0, 0.0]])),
                          tmp_path / "p.csv")
        assert run(["fuse", str(tmp_path / "p.csv"),
                    "--output", str(tmp_path / "f.csv")]) == 0

    def test_help_lists_domains(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for expected in ("{sgd,adam}", "{nn,cnn,rnn,cnn+rnn}", "{rnn,lstm,gru}",
                         "{uni,bi}", "{none,spectrogram,logmel,scalogram}"):
            assert expected in text

    def test_subcommand_required(self, capsys):
        assert run([]) == 2


def _flag(attr):
    return "--" + attr.replace("_", "-")


def _two_values(attr, parse):
    """A file value and a different flag value, both valid on their own."""
    if attr in DOMAINS:
        return DOMAINS[attr][0], DOMAINS[attr][-1]
    return {"on|off": ("off", "on"), "N,N,...": ("4", "6")}.get(
        METAVARS.get(parse), ("0.25", "0.5") if attr == "dev_fraction" else ("3", "5"))


SCHEMA_KEYS = [(section, key, attr, parse)
               for section, table in SCHEMA.items()
               for key, (attr, parse) in table.items()]


class TestFlagsFromSchema:
    @pytest.mark.parametrize("section,key,attr,parse", SCHEMA_KEYS,
                             ids=[_flag(k[2]) for k in SCHEMA_KEYS])
    def test_flag_beats_file(self, tmp_path, section, key, attr, parse):
        file_value, flag_value = _two_values(attr, parse)
        sections = {"preprocess": {"low": "1", "high": "100"}}  # lets --filter on validate
        sections.setdefault(section, {})[key] = file_value
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in table.items())
            for name, table in sections.items()))
        parser = build_parser()
        from_file = _resolve_config(parser.parse_args(["train", "--config", str(cfg_path)]))
        assert getattr(from_file, attr) == parse(file_value)
        args = parser.parse_args(["train", "--config", str(cfg_path), _flag(attr), flag_value])
        assert getattr(_resolve_config(args), attr) == parse(flag_value) != parse(file_value)

    @pytest.mark.parametrize("attr", sorted(DOMAINS))
    def test_value_outside_domain_is_usage_error(self, attr, capsys):
        assert run(["train", _flag(attr), "bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--epochs", "many", "expected an integer"),
        ("--fmax", "high", "expected a number"),
        ("--filter", "maybe", "expected on/off"),
        ("--cnn-channels", "8,x", "comma-separated integer list"),
        ("--learning-rate", "inf", "expected a finite number"),
        ("--sample-rate", "inf", "expected a finite number"),
        ("--fmin", "nan", "expected a finite number"),
        ("--dev-fraction", "nan", "expected a finite number"),
        ("--dev-fraction", "inf", "expected a finite number"),
    ])
    def test_unparsable_value_is_usage_error(self, flag, value, message, capsys):
        assert run(["train", flag, value]) == 2
        assert message in capsys.readouterr().err
