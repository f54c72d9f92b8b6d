"""Command-line frontend: preprocess, train, evaluate, predict, fuse.

Configuration comes from an INI file (``--config``) with per-key command-line
overrides; flags win over file values.  Verbosity is controlled by the
``DEEPSELF_LOG`` environment variable (error, info, debug).  Exit code is 0
iff all requested outputs were written; errors go to standard error.
"""

from __future__ import annotations

import argparse
import logging
import os
import shutil
import sys
from dataclasses import fields

import numpy as np

from .config import DOMAINS, METAVARS, SCHEMA, RunConfig, apply_overrides, load_config
from .data import (
    DatasetManifest,
    ManifestRow,
    assemble_dataset,
    load_manifest,
    load_signal,
    write_manifest,
)
from .dsp import (
    FeatureMap,
    apply_iir,
    design_butterworth_bandpass,
    log_mel_spectrogram,
    scalogram,
    spectrogram,
    write_feature_map,
)
from .errors import ConfigError, DataError, DeepSelfError, ShapeError
from .evaluation import (
    PredictionSet,
    confusion_matrix,
    format_confusion,
    fuse_predictions,
    kfold_cross_validate,
    read_predictions,
    uar,
    write_fold_report,
    write_predictions,
)
from .models import Recurrent, cnn_to_rnn_reshape, init_model
from .tensor import Tensor
from .training import (
    best_epoch_index,
    load_checkpoint,
    predict_batches,
    save_checkpoint,
    train,
    write_history,
)

log = logging.getLogger("deepself")

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _arg(parse):
    """An argparse ``type`` from an INI parser: its ``ConfigError`` becomes a usage error."""
    def convert(text):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _add_config_flags(p: argparse.ArgumentParser):
    """``--config`` plus one override per ``SCHEMA`` key (flags beat file values)."""
    p.add_argument("--config", metavar="PATH", help="INI config file")
    for section, table in SCHEMA.items():
        group = p.add_argument_group(f"[{section}]")
        for key, (attr, parse) in table.items():
            group.add_argument(
                "--" + attr.replace("_", "-"), dest=attr, type=_arg(parse),
                choices=DOMAINS.get(attr), metavar=METAVARS.get(parse),
                help=f"file key: {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepself",
        description="Signal classification: pre-processing, deep models, "
                    "evaluation, and fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="filter and/or extract feature maps")
    _add_config_flags(p)
    p.set_defaults(handler=cmd_preprocess)

    p = sub.add_parser("train", help="train a model, keep the best-dev epoch")
    _add_config_flags(p)
    p.add_argument("--dev-fraction", type=float, default=None,
                   help="carve a dev split from unsplit manifests (0..1)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="confusion matrix and UAR, or k-fold CV")
    _add_config_flags(p)
    p.add_argument("--checkpoint", metavar="PATH", help="model to evaluate")
    p.add_argument("--cv", action="store_true",
                   help="k-fold cross-validation over the manifest's fold column")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("predict", help="write labels and probabilities")
    _add_config_flags(p)
    p.add_argument("--checkpoint", metavar="PATH", required=True)
    p.add_argument("--output", metavar="PATH", help="default: OUTPUT_DIR/predictions.csv")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("fuse", help="late-fuse prediction CSVs")
    p.add_argument("inputs", nargs="+", metavar="PREDICTIONS_CSV")
    p.add_argument("--mode", choices=("mean", "vote"), default="mean")
    p.add_argument("--output", metavar="PATH", help="default: OUTPUT_DIR/fused.csv")
    p.add_argument("--output-dir", dest="output_dir", default=None)
    p.set_defaults(handler=cmd_fuse)
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    names = {f.name for f in fields(RunConfig)}
    overrides = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    return apply_overrides(cfg, overrides)


# ---------------------------------------------------------------------------
# Shared dataset plumbing
# ---------------------------------------------------------------------------


def _manifest(cfg: RunConfig) -> DatasetManifest:
    if not cfg.manifest:
        raise ConfigError("no manifest configured; set [data] manifest or pass --manifest")
    return load_manifest(cfg.manifest)


def _dataset(cfg: RunConfig, rows, label_map, sequence: bool):
    x, y, ids = assemble_dataset(rows, label_map, cfg.sample_rate, cfg.fixed_length)
    if sequence:
        x = cnn_to_rnn_reshape(Tensor(x)).data  # features need no grad: nothing is taped
    return x, y, ids


def _is_sequence_model(spec) -> bool:
    """Whether the model reads features in the CNN->RNN [T, C*F] layout."""
    return bool(spec.layers) and isinstance(spec.layers[0], Recurrent)


def _is_sequence_config(cfg: RunConfig) -> bool:
    """``_is_sequence_model`` for the spec ``cfg`` builds, before any data fixes its input shape."""
    return cfg.model_type == "rnn"


def _checkpoint_label_map(metadata: dict, n_classes: int, rows) -> dict:
    """Map manifest label names with the class order the model was trained on."""
    stored = metadata.get("classes", "")
    if stored:
        names = stored.split(",")
        label_map = {name: i for i, name in enumerate(names)}
    else:
        log.warning("checkpoint lacks class names; assuming lexicographic order")
        names = sorted({r.label for r in rows})
        label_map = {name: i for i, name in enumerate(names)}
    if len(label_map) > n_classes:
        raise DataError(
            f"checkpoint predicts {n_classes} classes but mapping has {len(label_map)}")
    unknown = sorted({r.label for r in rows} - set(label_map))
    if unknown:
        raise DataError(
            f"label {unknown[0]!r} is not among the checkpoint classes {names}")
    return label_map


def _check_input_shape(x, spec):
    if tuple(x.shape[1:]) != tuple(spec.input_shape):
        raise ShapeError(
            f"dataset samples have shape {tuple(x.shape[1:])} but the model "
            f"expects input shape {tuple(spec.input_shape)}")


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def _transform_row(index: int, row: ManifestRow, cfg: RunConfig, cascades: dict):
    signal = load_signal(row.path, cfg.sample_rate)
    if cfg.filter:
        rate = signal.sample_rate
        if rate not in cascades:
            cascades[rate] = design_butterworth_bandpass(cfg.filter_low, cfg.filter_high, rate)
        signal = apply_iir(signal, cascades[rate])
    if cfg.feature == "none":
        fm = FeatureMap(signal.samples, np.zeros(len(signal.samples)), 1.0 / signal.sample_rate)
    elif cfg.feature == "spectrogram":
        fm = spectrogram(signal, cfg.window_size, cfg.hop_size)
    elif cfg.feature == "logmel":
        fmax = cfg.fmax if cfg.fmax is not None else signal.sample_rate / 2.0
        fm = log_mel_spectrogram(signal, cfg.window_size, cfg.hop_size,
                                 cfg.n_mels, cfg.fmin, fmax)
    else:  # scalogram
        fmax = cfg.fmax if cfg.fmax is not None else signal.sample_rate / 2.0
        fm = scalogram(signal, cfg.n_voices, cfg.fmin, fmax)
    stem = os.path.splitext(os.path.basename(row.path))[0]
    base = f"{index:05d}_{stem}.dsfm"
    out_path = os.path.join(cfg.output_dir, base)
    write_feature_map(fm, out_path)
    log.info("preprocess %s -> %s [%d x %d]", row.raw_path, out_path, fm.rows, fm.cols)
    return ManifestRow(out_path, base, row.label, row.split, row.fold)


def cmd_preprocess(args) -> int:
    cfg = _resolve_config(args)
    manifest = _manifest(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)

    if not cfg.filter and cfg.feature == "none":
        # nothing to compute: pass-through copies keep the original format
        new_rows = []
        for i, row in enumerate(manifest.rows):
            base = f"{i:05d}_{os.path.basename(row.path)}"
            out_path = os.path.join(cfg.output_dir, base)
            shutil.copyfile(row.path, out_path)
            new_rows.append(ManifestRow(out_path, base, row.label, row.split, row.fold))
    else:
        cascades = {}
        new_rows = [_transform_row(i, row, cfg, cascades)
                    for i, row in enumerate(manifest.rows)]

    out_manifest = os.path.join(cfg.output_dir, "manifest.csv")
    write_manifest(DatasetManifest(new_rows, manifest.label_map), out_manifest)
    print(f"wrote {len(new_rows)} files and {out_manifest}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_dev_rows(manifest: DatasetManifest, dev_fraction, seed: int):
    train_rows = manifest.subset("train")
    dev_rows = manifest.subset("dev")
    if train_rows and dev_rows:
        return train_rows, dev_rows
    if dev_fraction is None:
        raise ConfigError(
            "manifest has no train/dev split; add a split column or pass --dev-fraction")
    if not 0.0 < dev_fraction < 1.0:
        raise ConfigError(f"--dev-fraction must lie in (0, 1), got {dev_fraction}")
    pool = train_rows or [r for r in manifest.rows if r.split != "test"]
    order = np.random.default_rng(seed).permutation(len(pool))
    n_dev = max(1, int(round(dev_fraction * len(pool))))
    if n_dev >= len(pool):
        raise ConfigError(f"--dev-fraction {dev_fraction} leaves no training rows")
    dev_idx = set(order[:n_dev].tolist())
    return ([pool[i] for i in range(len(pool)) if i not in dev_idx],
            [pool[i] for i in sorted(dev_idx)])


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    manifest = _manifest(cfg)
    for name in manifest.label_map:  # the checkpoint stores the classes as one comma-separated line
        if "," in name or name.splitlines() != [name]:
            raise DataError(f"class name {name!r} holds a comma or a line break, "
                            "which the checkpoint's class list cannot store")
    train_rows, dev_rows = _train_dev_rows(manifest, args.dev_fraction, cfg.seed)
    sequence = _is_sequence_config(cfg)
    x_train, y_train, _ = _dataset(cfg, train_rows, manifest.label_map, sequence)
    x_dev, y_dev, _ = _dataset(cfg, dev_rows, manifest.label_map, sequence)

    spec = cfg.model_spec(x_train.shape[1:], manifest.n_classes)
    model = init_model(spec)
    log.info("training %s model on %d train / %d dev samples",
             cfg.model_type, len(y_train), len(y_dev))
    model, history = train(model, (x_train, y_train), (x_dev, y_dev), cfg.train_config())

    os.makedirs(cfg.output_dir, exist_ok=True)
    best = best_epoch_index([r.dev_uar for r in history])
    classes = [name for name, _ in sorted(manifest.label_map.items(), key=lambda kv: kv[1])]
    metadata = {
        "epoch": str(history[best].epoch),
        "dev_uar": repr(history[best].dev_uar),
        "config_digest": cfg.digest(),
        "classes": ",".join(classes),
        "model_type": cfg.model_type,
    }
    ckpt_path = os.path.join(cfg.output_dir, "best.ckpt")
    save_checkpoint(model, metadata, ckpt_path)
    history_path = os.path.join(cfg.output_dir, "history.csv")
    write_history(history, history_path)
    print(f"best dev UAR: {history[best].dev_uar:.2f} (epoch {history[best].epoch})")
    print(f"wrote {ckpt_path} and {history_path}")
    return 0


# ---------------------------------------------------------------------------
# evaluate / predict / fuse
# ---------------------------------------------------------------------------


def _eval_rows(manifest: DatasetManifest):
    test_rows = manifest.subset("test")
    if test_rows:
        return test_rows, "test split"
    dev_rows = manifest.subset("dev")
    if dev_rows:
        return dev_rows, "dev split"
    return manifest.rows, "all rows"


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    manifest = _manifest(cfg)

    if args.cv:
        x, y, _ = _dataset(cfg, manifest.rows, manifest.label_map, _is_sequence_config(cfg))
        folds = manifest.folds()
        spec = cfg.model_spec(x.shape[1:], manifest.n_classes)
        report = kfold_cross_validate(x, y, folds, spec, cfg.train_config())
        os.makedirs(cfg.output_dir, exist_ok=True)
        report_path = os.path.join(cfg.output_dir, "fold_report.csv")
        write_fold_report(report, report_path)
        for fold_id, fold_uar in zip(report.fold_ids, report.uars):
            print(f"fold {fold_id}: UAR {fold_uar:.2f}")
        print(f"mean UAR: {report.mean:.2f}")
        print(f"wrote {report_path}")
        return 0

    if not args.checkpoint:
        raise ConfigError("evaluate needs --checkpoint (or --cv for cross-validation)")
    model, metadata = load_checkpoint(args.checkpoint)
    rows, described = _eval_rows(manifest)
    label_map = _checkpoint_label_map(metadata, model.n_classes, rows)
    sequence = _is_sequence_model(model.spec)
    x, y, _ = _dataset(cfg, rows, label_map, sequence)
    _check_input_shape(x, model.spec)
    pred, _ = predict_batches(model, x, cfg.batch_size)
    cm = confusion_matrix(y, pred, model.n_classes)
    print(f"evaluating {len(y)} samples ({described})")
    print(format_confusion(cm))
    print(f"UAR: {uar(cm):.2f}")
    return 0


def cmd_predict(args) -> int:
    cfg = _resolve_config(args)
    manifest = _manifest(cfg)
    model, _ = load_checkpoint(args.checkpoint)
    sequence = _is_sequence_model(model.spec)
    x, _, ids = _dataset(cfg, manifest.rows, manifest.label_map, sequence)
    _check_input_shape(x, model.spec)
    _, probs = predict_batches(model, x, cfg.batch_size)
    pset = PredictionSet.from_probabilities(ids, probs)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out_path = args.output or os.path.join(cfg.output_dir, "predictions.csv")
    write_predictions(pset, out_path)
    print(f"wrote {out_path}")
    return 0


def cmd_fuse(args) -> int:
    sets = [read_predictions(path) for path in args.inputs]
    fused = fuse_predictions(sets, args.mode)
    out_dir = args.output_dir or "out"
    out_path = args.output
    if out_path is None:
        os.makedirs(out_dir, exist_ok=True)
        out_path = os.path.join(out_dir, "fused.csv")
    write_predictions(fused, out_path)
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    level_name = os.environ.get("DEEPSELF_LOG", "error").strip().lower()
    if level_name not in LOG_LEVELS:
        print(f"error: DEEPSELF_LOG must be one of {sorted(LOG_LEVELS)}, "
              f"got {level_name!r}", file=sys.stderr)
        return 2
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(LOG_LEVELS[level_name])

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DeepSelfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
