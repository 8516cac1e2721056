"""Command-line entry points.

Subcommands: synth, train, train-two-stage, eval, grad-check, bench-losses,
icc.  The synth flags are ``featurepipe.synth_dataset``'s arguments with its
defaults, but ``--n`` (3000) and ``--out``.  The training flags of train,
train-two-stage and bench-losses are TrainConfig's fields, but the data
paths, which come from --train and --val; the model's input widths come from
the training data.  Argument or field ``x_y`` is the flag ``--x-y``, except
``--channels`` and ``--frames`` for synth's ``n_channels`` and ``n_frames``.
A JSON config file (--config) may set training fields, under explicit flags.
Bad input (a ValueError) or a missing or unreadable file (an OSError) prints
one ``engagerank: error:`` line on stderr and exits 2, as argparse does for
a bad flag.  ENGAGERANK_LOG_LEVEL sets log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import logging
import os
import sys
from collections import abc
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np

from . import featurepipe, harness, metrics, model
from .harness import LOSSES, TrainConfig

CONFIG_VERSION = 1

# TrainConfig fields the CLI and config files may set
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
_PRESETS = {"desk": TrainConfig.desk, "paper": TrainConfig.paper_scale}
# synth's renamed flags, and the keywords a flag takes beyond its type
_FLAG_NAMES = {"n_channels": "--channels", "n_frames": "--frames"}
_FLAG_KEYWORDS = {"loss": {"choices": LOSSES}, "sampler": {"choices": harness.SAMPLERS},
                  "ablation": {"choices": model.FUSIONS},
                  "init_from": {"help": "checkpoint to initialize parameters from"}}


def comma_floats(text: str) -> tuple:
    """A comma list of numbers, such as ``346,2208,8469,1170``."""
    return tuple(float(x) for x in text.split(","))


def _add_flags(p: argparse.ArgumentParser, kinds: dict) -> None:
    """A flag for each ``name: type``; one not given is None, so what it
    feeds keeps its own default.  A bool takes ``--x-y`` and ``--no-x-y``."""
    for name, kind in kinds.items():
        kw = {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": kind}
        p.add_argument(_FLAG_NAMES.get(name, "--" + name.replace("_", "-")), dest=name,
                       **kw, **_FLAG_KEYWORDS.get(name, {}))


def _synth_kinds() -> dict:
    """The type of each synth_dataset argument but ``n``, whose default is
    the CLI's own; a sequence parses as a comma list.  The hints are read
    through any wrapper that keeps the function as ``__wrapped__``."""
    hints = get_type_hints(inspect.unwrap(featurepipe.synth_dataset))
    return {name: comma_floats if get_origin(hint) is abc.Sequence else hint
            for name, hint in hints.items() if name not in ("n", "return")}


def _given(args: argparse.Namespace, names) -> dict:
    """Each given flag's value among ``names``; a name with no flag is not given."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """--config, --preset and a flag for each TrainConfig field but the data
    paths, which come from --train and --val; Optional[X] parses as X."""
    p.add_argument("--config", help="JSON config file (see README for schema)")
    p.add_argument("--preset", choices=list(_PRESETS),
                   help="base preset applied before config file and flags")
    _add_flags(p, {name: kind for name, (kind, _) in harness.config_field_types().items()
                   if name not in ("train_path", "val_path")})


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {path!r}: malformed JSON ({err})") from err
    if not isinstance(data, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    version = data.pop("config_version", None)
    if version != CONFIG_VERSION:
        raise ValueError(
            f"config file {path!r} has config_version {version!r}; expected "
            f"{CONFIG_VERSION}")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"config file {path!r} has unknown keys: {sorted(unknown)}")
    return data


def build_train_config(args: argparse.Namespace, train_path=None,
                       val_path=None) -> TrainConfig:
    """Merge preset < config file < explicit CLI flags into a TrainConfig."""
    merged: dict = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    merged.update(_given(args, _CONFIG_FIELDS))
    if train_path is not None:
        merged["train_path"] = train_path
    if val_path is not None:
        merged["val_path"] = val_path
    # a preset's own values sit under everything merged above
    return _PRESETS.get(args.preset, TrainConfig)(**merged)


def _write_history_csv(history: list, path) -> None:
    columns = ["epoch", "stage", "train_loss", "lr", "val_acc", "val_avg_acc"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in history:
            writer.writerow([row.get(c, "") for c in columns])


def _write_run_outputs(out_dir: str, state, history) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    harness.save_checkpoint(state, str(out / "checkpoint.npz"))
    _write_history_csv(history, out / "history.csv")
    # training scored the validation set after its final epoch
    report = state.val_report
    if report is not None:
        (out / "metrics.json").write_text(report.to_json() + "\n")
        metrics.write_recall_csv(out / "recall.csv", {"model": report})
    print(f"run artifacts written to {out}")


def cmd_synth(args) -> int:
    dataset = featurepipe.synth_dataset(n=args.n, **_given(args, _synth_kinds()))
    featurepipe.save_records(dataset, args.out)
    print(f"wrote {len(dataset.records)} records to {args.out} "
          f"(class counts {dataset.class_counts().tolist()})")
    return 0


def _load_train_val(config: TrainConfig):
    """The data at the config's paths: --train, and --val or else a config
    file's val_path."""
    train_set = featurepipe.load_records(config.train_path)
    val_set = featurepipe.load_records(config.val_path) if config.val_path else None
    return train_set, val_set


def cmd_train(args) -> int:
    """train and train-two-stage: ``args.trainer`` is the harness loop."""
    config = build_train_config(args, train_path=args.train, val_path=args.val)
    train_set, val_set = _load_train_val(config)
    state, history = args.trainer(config, train_set, val_set)
    _write_run_outputs(args.out_dir, state, history)
    return 0


def cmd_eval(args) -> int:
    state = harness.load_checkpoint(args.checkpoint)
    dataset = featurepipe.load_records(args.data)
    report = harness.evaluate(state, dataset, subset=args.subset)
    text = report.to_json()
    print(text)
    if args.metrics_out:
        Path(args.metrics_out).write_text(text + "\n")
    if args.recall_out:
        metrics.write_recall_csv(args.recall_out, {"model": report})
    return 0


def cmd_grad_check(args) -> int:
    config = TrainConfig.tiny(use_audio=args.audio)
    losses = args.losses.split(",") if args.losses else None
    report = harness.grad_check(config, losses=losses,
                                **_given(args, ("n_params_max", "tolerance")))
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def cmd_bench_losses(args) -> int:
    base = build_train_config(args, train_path=args.train, val_path=args.val)
    train_set, val_set = _load_train_val(base)
    test_set = featurepipe.load_records(args.test)
    seeds = [int(s) for s in args.seeds.split(",")]
    # each token is "loss" or "loss:sampler", e.g. mse:class_balanced for the
    # class-sampled regression baseline
    variants = {}
    for token in args.losses.split(","):
        name, _, sampler = token.partition(":")
        overrides = {"loss": name}
        if sampler:
            overrides["sampler"] = sampler
        variants[token] = overrides
    results = harness.bench_losses(base, variants, seeds, train_set, val_set,
                                   test_set)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["variant", "seed", "acc", "avg_acc"])
        writer.writeheader()
        writer.writerows(results["rows"])
    (out / "summary.json").write_text(json.dumps(results["summary"], indent=2) + "\n")
    print(json.dumps(results["summary"], indent=2))
    return 0


def cmd_icc(args) -> int:
    ratings = np.loadtxt(args.ratings, delimiter=",", ndmin=2)
    value = metrics.icc_2_1(ratings)
    print(json.dumps({"icc": value}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engagerank",
        description="Ordinal engagement scoring with a momentum-queue ranking loss")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic JSONL dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=3000)
    _add_flags(p, _synth_kinds())
    p.set_defaults(func=cmd_synth)

    for name, trainer, extra_help in (
            ("train", harness.train, "train a model"),
            ("train-two-stage", harness.train_two_stage,
             "visual stage then frozen-visual audio stage")):
        p = sub.add_parser(name, help=extra_help)
        p.add_argument("--train", required=True, help="training JSONL")
        p.add_argument("--val", help="validation JSONL")
        p.add_argument("--out-dir", required=True, dest="out_dir")
        _add_train_flags(p)
        p.set_defaults(func=cmd_train, trainer=trainer)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subset", choices=harness.SUBSETS, default="all")
    p.add_argument("--metrics-out", dest="metrics_out")
    p.add_argument("--recall-out", dest="recall_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check",
                       help="finite-difference check of all loss gradients")
    p.add_argument("--max-params", type=int, dest="n_params_max")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--losses", help="comma list (default: all)")
    p.add_argument("--audio", action="store_true",
                   help="check the audio branch (scalar losses only)")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("bench-losses",
                       help="train several losses over seeds and tabulate metrics")
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    p.add_argument("--test", required=True)
    p.add_argument("--losses", required=True,
                   help="comma list of loss[:sampler] variants")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_train_flags(p)
    p.set_defaults(func=cmd_bench_losses)

    p = sub.add_parser("icc", help="ICC(2,1) of a subjects-by-raters CSV")
    p.add_argument("--ratings", required=True)
    p.set_defaults(func=cmd_icc)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("ENGAGERANK_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
