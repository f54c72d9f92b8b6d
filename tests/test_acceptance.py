"""Acceptance suite: one test per criterion, one visible PASS/FAIL line each.

Each test prints its verdict directly to the terminal (bypassing capture) so
a plain ``pytest -v`` run shows the per-criterion outcome, then asserts, so a
failed criterion is also a failed test.
"""

import csv
import math
import os
import statistics
import struct
import time

import numpy as np
import pytest

from deepself.cli import main as cli_main
from deepself.dsp import (
    Signal,
    apply_iir,
    design_butterworth_bandpass,
    hz_to_mel,
    log_mel_spectrogram,
    scalogram,
    spectrogram,
)
from deepself.evaluation import read_predictions, uar_from_labels
from deepself.models import (
    Conv,
    Dense,
    ModelSpec,
    Recurrent,
    forward,
    init_model,
)
from deepself.tensor import Tensor, backward, finite_diff_grad, no_grad, softmax_cross_entropy
from deepself.training import (
    TrainConfig,
    fine_tune,
    load_checkpoint,
    save_checkpoint,
    train,
)


def report(capsys, number, name, ok, details=""):
    with capsys.disabled():
        line = f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}"
        if details:
            line += f" ({details})"
        print(f"\n{line}", flush=True)
    assert ok, f"criterion {number} ({name}): {details}"


def skip_report(capsys, number, name, reason):
    with capsys.disabled():
        print(f"\n[acceptance {number}] {name}: SKIP ({reason})", flush=True)
    pytest.skip(reason)


# ---------------------------------------------------------------------------
# Shared synthetic data
# ---------------------------------------------------------------------------

FS = 100.0


def sine_dataset(seed, f_a, f_b, n_train=200, n_dev=100, sigma=0.2, seconds=1.0):
    """Two-class noisy sines with random phase; channels-first float32."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(FS * seconds)) / FS

    def split(n):
        half = n // 2
        xs = []
        for freq in (f_a, f_b):
            phases = rng.uniform(0.0, 2.0 * np.pi, size=half)
            clean = np.sin(2.0 * np.pi * freq * t[None, :] + phases[:, None])
            xs.append(clean + rng.normal(0.0, sigma, size=(half, t.size)))
        x = np.concatenate(xs)[:, None, :].astype(np.float32)
        y = np.array([0] * half + [1] * half)
        order = rng.permutation(n)
        return x[order], y[order]

    return split(n_train), split(n_dev)


def to_sequences(x):
    return np.ascontiguousarray(np.transpose(x, (0, 2, 1)))


def epochs_to_target(history, target=95.0):
    for rec in history:
        if rec.dev_uar >= target:
            return rec.epoch
    return None


def cnn_spec(shape, seed):
    return ModelSpec(shape, (Conv(1, 8, (5,), (2,), (0,)),
                             Conv(1, 16, (3,), (2,), (0,)), Dense(32)), 2, seed=seed)


def gru_spec(shape, seed):
    return ModelSpec(shape, (Recurrent("gru", 24, 1, "bi"),), 2, seed=seed)


def cnn_gru_spec(shape, seed):
    return ModelSpec(shape, (Conv(1, 8, (5,), (2,), (0,)),
                             Recurrent("gru", 16, 1, "bi")), 2, seed=seed)


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite
# ---------------------------------------------------------------------------


GRADIENT_SPECS = [
    ModelSpec((6,), (Dense(5), Dense(4)), 3, seed=1),
    ModelSpec((5,), (Dense(6),), 2, activation="tanh", seed=2),
    ModelSpec((5,), (Dense(6),), 2, activation="sigmoid", seed=3),
    ModelSpec((2, 8), (Conv(1, 3, (3,), (2,), (1,)), Dense(5)), 2, seed=4),
    ModelSpec((2, 6, 6), (Conv(2, 3, (3, 3), (1, 1), (0, 0)),), 2, seed=5),
    ModelSpec((1, 4, 4, 4), (Conv(3, 2, (2, 2, 2), (1, 1, 1), (0, 0, 0)),), 2, seed=6),
    ModelSpec((5, 3), (Recurrent("rnn", 4),), 2, seed=7),
    ModelSpec((5, 3), (Recurrent("rnn", 4, 1, "bi"),), 2, seed=8),
    ModelSpec((4, 3), (Recurrent("lstm", 4),), 2, seed=9),
    ModelSpec((4, 3), (Recurrent("lstm", 3, 1, "bi"),), 2, seed=10),
    ModelSpec((5, 2), (Recurrent("gru", 4),), 3, seed=11),
    ModelSpec((4, 2), (Recurrent("gru", 3, 2, "bi"),), 2, seed=12),
    ModelSpec((1, 8), (Conv(1, 2, (3,), (2,), (0,)), Recurrent("gru", 4, 1, "bi")), 2, seed=13),
    ModelSpec((2, 5, 6), (Conv(2, 2, (2, 3), (1, 2), (0, 1)),
                          Recurrent("lstm", 4, 1, "bi")), 3, seed=14),
]


def _spec_max_grad_error(spec, batch_size=3, seed=0):
    model = init_model(spec, dtype=np.float64)
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((batch_size, *spec.input_shape))
    targets = rng.integers(0, spec.n_classes, size=batch_size)

    def compute_loss(batch_tensor):
        logits, _ = forward(model, batch_tensor)
        loss, _ = softmax_cross_entropy(logits, targets)
        return loss

    batch_t = Tensor(batch, requires_grad=True, dtype=np.float64)
    loss = compute_loss(batch_t)
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in model.params.items()}
    analytic["<input>"] = batch_t.grad.copy()

    def rel_err(a, n):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        return float(np.max(np.abs(a - n) / denom))

    worst = 0.0
    for name, p in model.params.items():
        def f(t, _p=p):
            saved = _p.data
            _p.data = t.data
            try:
                return compute_loss(Tensor(batch, dtype=np.float64))
            finally:
                _p.data = saved
        worst = max(worst, rel_err(analytic[name], finite_diff_grad(f, p, h=1e-5)))
    numeric_in = finite_diff_grad(lambda t: compute_loss(t), batch_t, h=1e-5)
    worst = max(worst, rel_err(analytic["<input>"], numeric_in))
    return worst


def test_criterion_1_gradient_suite(capsys):
    start = time.time()
    worst = max(_spec_max_grad_error(spec) for spec in GRADIENT_SPECS)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    report(capsys, 1, "gradient suite", ok,
           f"max rel err {worst:.2e} over {len(GRADIENT_SPECS)} topologies, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: filter suite
# ---------------------------------------------------------------------------


def test_criterion_2_filter_suite(capsys):
    cascade = design_butterworth_bandpass(0.5, 30.0, 173.61)
    g_low = cascade.gain_db_at(0.5)
    g_high = cascade.gain_db_at(30.0)
    g_dc = cascade.gain_db_at(0.0)
    g_nyq = cascade.gain_db_at(173.61 / 2.0)
    edges_ok = abs(g_low - (-3.01)) <= 0.05 and abs(g_high - (-3.01)) <= 0.05
    stop_ok = g_dc < -60.0 and g_nyq < -60.0

    rng = np.random.default_rng(20240901)
    stable = 0
    for _ in range(1000):
        fs = rng.uniform(50.0, 48000.0)
        low = rng.uniform(1e-3 * fs, 0.35 * fs)
        high = rng.uniform(low * 1.05, 0.499 * fs)
        poles = design_butterworth_bandpass(low, high, fs).poles()
        stable += bool(np.all(np.abs(poles) < 1.0))

    ok = edges_ok and stop_ok and stable == 1000
    report(capsys, 2, "filter suite", ok,
           f"cutoff gains {g_low:.3f}/{g_high:.3f} dB, DC {g_dc:.0f} dB, "
           f"Nyquist {g_nyq:.1f} dB, {stable}/1000 designs stable")


# ---------------------------------------------------------------------------
# Criterion 3: transform suite
# ---------------------------------------------------------------------------


def test_criterion_3_transform_suite(capsys):
    mel_1000 = hz_to_mel(1000.0)
    mel_ok = abs(mel_1000 - 1000.0) <= 0.1

    fs = 16000.0
    t = np.arange(int(fs)) / fs
    tone = Signal(np.sin(2.0 * np.pi * 440.0 * t)[None, :], fs)
    power = spectrogram(tone, 1024, 512)
    argmax_bins = np.argmax(power.values, axis=0)
    bin_ok = bool(np.all(argmax_bins == 28))

    t10 = np.arange(200) / FS
    ridge_map = scalogram(Signal(np.sin(2.0 * np.pi * 10.0 * t10)[None, :], FS),
                          n_voices=12, fmin_hz=1.0, fmax_hz=50.0)
    mid = ridge_map.values[:, 50:150]  # away from edge effects
    ridge_row = int(np.argmax(mid.sum(axis=1)))
    ridge_freq = ridge_map.row_axis_hz[ridge_row]
    ridge_ok = abs(math.log2(ridge_freq / 10.0)) <= 1.0 / 12.0 + 1e-9

    zeros = Signal(np.zeros((1, 512)), fs)
    zero_spec = spectrogram(zeros, 128, 64).values
    zero_scal = scalogram(Signal(np.zeros((1, 256)), FS), 12, 1.0, 50.0).values
    zero_logmel = log_mel_spectrogram(zeros, 128, 64, 10, 0.0, fs / 2).values
    zero_ok = (not zero_spec.any()) and (not zero_scal.any()) \
        and bool(np.all(zero_logmel == math.log(1e-10)))

    ok = mel_ok and bin_ok and ridge_ok and zero_ok
    report(capsys, 3, "transform suite", ok,
           f"mel(1000)={mel_1000:.3f}, 440 Hz bin {argmax_bins[0]}, "
           f"ridge {ridge_freq:.2f} Hz, zero maps exact={zero_ok}")


# ---------------------------------------------------------------------------
# Criterion 4: UAR oracle
# ---------------------------------------------------------------------------


def _oracle_uar(truth, pred):
    """Brute-force per-class recall mean, written with plain loops."""
    classes = sorted(set(int(v) for v in truth))
    recalls = []
    for c in classes:
        total = sum(1 for v in truth if v == c)
        hit = sum(1 for v, p in zip(truth, pred) if v == c and p == c)
        recalls.append(hit / total)
    return 100.0 * (sum(recalls) / len(recalls))


def test_criterion_4_uar_oracle(capsys):
    rng = np.random.default_rng(4242)
    mismatches = 0
    for _ in range(1000):
        c = int(rng.integers(2, 7))       # C <= 6
        n = int(rng.integers(1, 51))      # N <= 50
        truth = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        ours = uar_from_labels(truth, pred, c)
        theirs = _oracle_uar(truth.tolist(), pred.tolist())
        mismatches += ours != theirs
    report(capsys, 4, "UAR oracle", mismatches == 0,
           f"{1000 - mismatches}/1000 pairs exactly equal")


# ---------------------------------------------------------------------------
# Criterion 5: learnability
# ---------------------------------------------------------------------------


def test_criterion_5_learnability(capsys):
    start = time.time()

    # (a) XOR: 1 hidden layer x 8 nodes, Adam lr 0.01, within 2000 epochs.
    # tanh hidden activation: with relu, a minority of seeds famously die in
    # the 75%-accuracy local minimum, which is a property of the task, not
    # of the trainer under test.
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float32)
    y = np.array([0, 1, 1, 0])
    wins = 0
    for seed in range(20):
        spec = ModelSpec((2,), (Dense(8),), 2, activation="tanh", seed=seed)
        cfg = TrainConfig(learning_rate=0.01, batch_size=4, epochs=2000,
                          optimizer="adam", seed=seed)
        _, history = train(init_model(spec), (x, y), (x, y), cfg)
        wins += any(rec.train_uar == 100.0 for rec in history)
    xor_ok = wins >= 18

    # (b) sine 5 Hz vs 10 Hz + N(0, 0.2^2), fs=100, 1 s, 200 train / 100 dev
    results = {}
    for name, spec_fn, lr, seq in (("1D-CNN", cnn_spec, 0.01, False),
                                   ("bi-GRU", gru_spec, 0.001, True),
                                   ("CNN+GRU", cnn_gru_spec, 0.003, False)):
        (x_tr, y_tr), (x_de, y_de) = sine_dataset(100, 5.0, 10.0)
        if seq:
            x_tr, x_de = to_sequences(x_tr), to_sequences(x_de)
        cfg = TrainConfig(learning_rate=lr, batch_size=16, epochs=30,
                          optimizer="adam", seed=0)
        _, history = train(init_model(spec_fn(x_tr.shape[1:], 0)),
                           (x_tr, y_tr), (x_de, y_de), cfg)
        results[name] = epochs_to_target(history)
    sines_ok = all(e is not None for e in results.values())

    elapsed = time.time() - start
    ok = xor_ok and sines_ok and elapsed < 300.0
    summary = ", ".join(f"{k} e95={v}" for k, v in results.items())
    report(capsys, 5, "learnability", ok,
           f"XOR {wins}/20 seeds, {summary}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 6: determinism & persistence
# ---------------------------------------------------------------------------


def test_criterion_6_determinism_persistence(capsys, tmp_path):
    (x_tr, y_tr), (x_de, y_de) = sine_dataset(6, 5.0, 10.0, n_train=40, n_dev=20)
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=5,
                      optimizer="adam", seed=6)
    paths = []
    for run_no in range(2):
        model, _ = train(init_model(cnn_spec(x_tr.shape[1:], 6)),
                         (x_tr, y_tr), (x_de, y_de), cfg)
        path = tmp_path / f"run{run_no}.ckpt"
        save_checkpoint(model, {"run": str(run_no)}, path)
        paths.append(path)
    # metadata differs by design; compare everything before it (spec+params)
    blobs = [p.read_bytes() for p in paths]
    meta_free = [b[:b.rfind(b"run=")] for b in blobs]
    identical = meta_free[0] == meta_free[1] and len(blobs[0]) == len(blobs[1])

    model, _ = train(init_model(cnn_spec(x_tr.shape[1:], 6)),
                     (x_tr, y_tr), (x_de, y_de), cfg)
    same_meta_path = tmp_path / "same.ckpt"
    save_checkpoint(model, {}, same_meta_path)
    reloaded, _ = load_checkpoint(same_meta_path)
    with no_grad():
        logits_a, _ = forward(model, x_de)
        logits_b, _ = forward(reloaded, x_de)
    bit_identical = np.array_equal(logits_a.data, logits_b.data)

    ok = identical and bit_identical
    report(capsys, 6, "determinism & persistence", ok,
           f"checkpoint bytes identical={identical}, "
           f"save/load/forward logits bit-identical={bit_identical}")


# ---------------------------------------------------------------------------
# Criterion 7: transfer learning
# ---------------------------------------------------------------------------


def test_criterion_7_transfer(capsys, tmp_path):
    ft_epochs, scratch_epochs = [], []
    for seed in range(5):
        (xa_tr, ya_tr), (xa_de, ya_de) = sine_dataset(200 + seed, 5.0, 10.0)
        (xb_tr, yb_tr), (xb_de, yb_de) = sine_dataset(300 + seed, 7.0, 14.0, n_train=60)
        pre_cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=12,
                              optimizer="adam", seed=seed)
        model, _ = train(init_model(cnn_spec(xa_tr.shape[1:], seed)),
                         (xa_tr, ya_tr), (xa_de, ya_de), pre_cfg)
        ckpt = tmp_path / f"pre{seed}.ckpt"
        save_checkpoint(model, {}, ckpt)

        cfg = TrainConfig(learning_rate=0.003, batch_size=8, epochs=50,
                          optimizer="adam", seed=seed)
        _, hist_ft = fine_tune(ckpt, (xb_tr, yb_tr), (xb_de, yb_de), cfg)
        _, hist_sc = train(init_model(cnn_spec(xb_tr.shape[1:], seed)),
                           (xb_tr, yb_tr), (xb_de, yb_de), cfg)
        ft_epochs.append(epochs_to_target(hist_ft) or 51)
        scratch_epochs.append(epochs_to_target(hist_sc) or 51)

    med_ft = statistics.median(ft_epochs)
    med_sc = statistics.median(scratch_epochs)
    reached = all(e <= 50 for e in ft_epochs) and all(e <= 50 for e in scratch_epochs)
    ok = reached and med_ft < med_sc
    report(capsys, 7, "transfer", ok,
           f"epochs-to-95 fine-tune {ft_epochs} (median {med_ft}) vs "
           f"scratch {scratch_epochs} (median {med_sc})")


# ---------------------------------------------------------------------------
# Criterion 8 (soft): Bonn EEG reproduction
# ---------------------------------------------------------------------------

BONN_RATE = 173.61
BONN_SETS = {"Z": 0, "O": 0, "N": 0, "F": 0, "S": 1}  # A-D vs E


def _find_bonn_dir():
    candidates = [os.environ.get("DEEPSELF_BONN_DIR", "")]
    candidates.append(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                   "data", "bonn"))
    for root in candidates:
        if not root or not os.path.isdir(root):
            continue
        sets = {}
        for entry in sorted(os.listdir(root)):
            key = entry.upper()
            full = os.path.join(root, entry)
            if key in BONN_SETS and os.path.isdir(full):
                files = sorted(f for f in os.listdir(full)
                               if f.lower().endswith(".txt"))
                if files:
                    sets[key] = [os.path.join(full, f) for f in files]
        if set(sets) == set(BONN_SETS):
            return sets
    return None


def test_criterion_8_bonn_eeg(capsys):
    sets = _find_bonn_dir()
    if sets is None:
        skip_report(capsys, 8, "Bonn EEG (soft)",
                    "dataset absent; set DEEPSELF_BONN_DIR or data/bonn/{Z,O,N,F,S}")

    from deepself.data import load_csv_series

    cascade = design_butterworth_bandpass(0.5, 30.0, BONN_RATE)
    x_train, y_train, x_dev, y_dev = [], [], [], []
    for key, label in BONN_SETS.items():
        files = sets[key]
        n_dev = max(1, len(files) // 5)  # last 20% of each set -> dev
        for i, path in enumerate(files):
            sig = load_csv_series(path, BONN_RATE)
            sig = apply_iir(Signal(sig.samples[:, :4096], BONN_RATE), cascade)
            fm = log_mel_spectrogram(sig, 256, 128, 26, 0.5, BONN_RATE / 2)
            seq = np.ascontiguousarray(fm.values.T, dtype=np.float32)  # [T x mel]
            if i >= len(files) - n_dev:
                x_dev.append(seq), y_dev.append(label)
            else:
                x_train.append(seq), y_train.append(label)
    x_train, y_train = np.stack(x_train), np.array(y_train)
    x_dev, y_dev = np.stack(x_dev), np.array(y_dev)

    # 2 bidirectional GRU layers + 1 fully connected (classifier head)
    spec = ModelSpec(x_train.shape[1:], (Recurrent("gru", 32, 2, "bi"),), 2, seed=0)
    cfg = TrainConfig(learning_rate=0.003, batch_size=16, epochs=20,
                      optimizer="adam", seed=0)
    _, history = train(init_model(spec), (x_train, y_train), (x_dev, y_dev), cfg)
    best = max(rec.dev_uar for rec in history)
    report(capsys, 8, "Bonn EEG (soft)", best >= 60.0, f"best dev UAR {best:.1f}")


# ---------------------------------------------------------------------------
# Criterion 9: CLI contract
# ---------------------------------------------------------------------------


def _write_tone_wav(path, freq, fs=2000, n=500, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    wave = 0.7 * np.sin(2 * np.pi * freq * t) + rng.normal(0, 0.05, n)
    clip = np.clip(np.round(wave * 32767), -32768, 32767).astype("<i2")
    payload = clip.tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, 1, 1, fs, fs * 2, 2, 16, b"data", len(payload))
    path.write_bytes(header + payload)


def test_criterion_9_cli_contract(capsys, tmp_path):
    root = tmp_path / "synth"
    root.mkdir()
    rows = []
    for i in range(16):
        freq, label = (300.0, "low") if i % 2 == 0 else (800.0, "high")
        name = f"tone{i:02d}.wav"
        _write_tone_wav(root / name, freq, seed=i)
        split = "train" if i < 10 else ("dev" if i < 13 else "test")
        rows.append((name, label, split, ""))
    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "label", "split", "fold"])
        w.writerows(rows)

    def run(argv):
        try:
            return cli_main(argv)
        except SystemExit as exc:
            return exc.code

    pre = tmp_path / "pre"
    out = tmp_path / "run"
    steps_ok = {}
    steps_ok["preprocess"] = run([
        "preprocess", "--manifest", str(manifest), "--output-dir", str(pre),
        "--feature", "logmel", "--n-mels", "10",
        "--window-size", "64", "--hop-size", "32"]) == 0
    derived = pre / "manifest.csv"
    steps_ok["train"] = run([
        "train", "--manifest", str(derived), "--output-dir", str(out),
        "--model-type", "cnn", "--cnn-channels", "4", "--cnn-kernel", "3",
        "--cnn-stride", "2", "--cnn-padding", "0",
        "--nn-hidden-layers", "1", "--nn-hidden-nodes", "16",
        "--epochs", "15", "--learning-rate", "0.01", "--batch-size", "4",
        "--seed", "1"]) == 0
    steps_ok["evaluate"] = run([
        "evaluate", "--manifest", str(derived), "--output-dir", str(out),
        "--checkpoint", str(out / "best.ckpt")]) == 0
    steps_ok["predict"] = run([
        "predict", "--manifest", str(derived), "--output-dir", str(out),
        "--checkpoint", str(out / "best.ckpt")]) == 0
    steps_ok["fuse"] = run([
        "fuse", str(out / "predictions.csv"), str(out / "predictions.csv"),
        "--mode", "mean", "--output", str(out / "fused.csv")]) == 0

    files_ok = all((pre / "manifest.csv").exists() for _ in [0]) and all(
        (out / f).exists() for f in ("best.ckpt", "history.csv",
                                     "predictions.csv", "fused.csv"))
    fused = read_predictions(out / "fused.csv")
    fusion_ok = len(fused.ids) == 16

    # out-of-domain values must be rejected with a domain-listing message
    capsys.readouterr()
    rejects = []
    for argv, fragment in (
        (["train", "--manifest", str(derived), "--optimizer", "nadam"], "adam"),
        (["train", "--manifest", str(derived), "--model-type", "transformer"], "cnn+rnn"),
        (["train", "--manifest", str(derived), "--rnn-type", "elman"], "gru"),
        (["train", "--manifest", str(derived), "--rnn-direction", "both"], "bi"),
        (["preprocess", "--manifest", str(manifest), "--feature", "mfcc"], "scalogram"),
        (["fuse", str(out / "predictions.csv"), "--mode", "median"], "vote"),
    ):
        code = run(argv)
        err = capsys.readouterr().err
        rejects.append(code not in (0, None) and fragment in err)
    # config-file domain violations exit nonzero with the domain in the message
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[general]\noptimizer = nadam\n")
    code = run(["train", "--config", str(bad_cfg), "--manifest", str(derived)])
    err = capsys.readouterr().err
    rejects.append(code == 1 and "sgd" in err and "adam" in err)

    ok = all(steps_ok.values()) and files_ok and fusion_ok and all(rejects)
    report(capsys, 9, "CLI contract", ok,
           f"pipeline steps {steps_ok}, files present={files_ok}, "
           f"rejections {sum(rejects)}/{len(rejects)}")
