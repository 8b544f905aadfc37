"""Command-line entry point: train, evaluate, sweep, landscape, centers, run-all."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import harness
from .harness import ExperimentConfig
from .heads import HeadKind
from .nncore import Layout, load_checkpoint


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from None
        cfg = ExperimentConfig.from_dict(raw)
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _require_head(args) -> HeadKind:
    if args.head is None:
        raise ValueError("this command needs a head; pass --head")
    return HeadKind(args.head)


def _load_model(args, cfg: ExperimentConfig):
    ckpt = args.checkpoint or Path(args.out) / _require_head(args).value / "checkpoint.json"
    params, head_str, seed = load_checkpoint(ckpt)
    choices = [h.value for h in HeadKind]
    if head_str not in choices:
        raise ValueError(f"malformed checkpoint {ckpt}: head must be one of {choices}, "
                         f"got {head_str!r}")
    head = HeadKind(head_str)
    if args.head is not None and head.value != args.head:
        raise ValueError(f"checkpoint {ckpt} holds head '{head.value}', "
                         f"expected '{args.head}'")
    if seed != cfg.seed:
        raise ValueError(f"checkpoint {ckpt} was trained with seed {seed}, "
                         f"expected seed {cfg.seed}")
    # the ring data has 2 features
    expected = Layout([2, *cfg.model.hidden], cfg.data.num_classes, head.uses_biases)
    misfit = expected.misfit(dict(zip(params.layout.names, params.layout.shapes)))
    if misfit:
        raise ValueError(f"checkpoint {ckpt} does not fit the config: "
                         "{} has shape {}, the config needs {}".format(*misfit))
    return params, head, ckpt


def _run_stage(name: str, args) -> int:
    """Run one stage of ``harness.STAGES`` for one head and print its summary."""
    cfg = _load_config(args)
    if name == "train":
        params, head, ckpt = None, _require_head(args), None
    else:
        params, head, ckpt = _load_model(args, cfg)
    head_dir = Path(args.out) / head.value
    head_dir.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the stage runs
    try:
        _, summary = harness.STAGES[name](cfg, head, params,
                                          lambda: harness.make_datasets(cfg), head_dir)
    except harness.NonFiniteModel as exc:
        raise ValueError(f"{exc}; checkpoint {ckpt}") from None
    print(summary)
    return 0


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    outcome = harness.run_all(cfg, args.out)
    for head, stages in outcome.manifest["stages"].items():
        status = ", ".join(f"{stage}={state}" for stage, state in stages.items())
        print(f"{head}: {status}")
    print(f"artifacts in {Path(args.out)}")
    return 0 if outcome.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ovabench",
        description="Train and compare softmax / one-vs-all probability heads "
                    "on a synthetic 2D task")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="experiment seed")
    common.add_argument("--out", default="out", help="output directory (default: ./out)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in harness.STAGES:
        stage = sub.add_parser(name, parents=[common])
        stage.add_argument("--head", choices=[h.value for h in HeadKind],
                           help="which probability head to use")
        if name != "train":
            stage.add_argument("--checkpoint", help="explicit checkpoint path "
                                                    "(default: <out>/<head>/checkpoint.json)")
        stage.set_defaults(fn=functools.partial(_run_stage, name))
    sub.add_parser("run-all", parents=[common]).set_defaults(fn=cmd_run_all)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError, harness.TrainingDiverged) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
