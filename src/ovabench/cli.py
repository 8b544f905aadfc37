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
from .nncore import load_checkpoint


def _load_config(args) -> ExperimentConfig:
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        cfg = ExperimentConfig.from_dict(raw)
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "head", None):
        cfg.head = HeadKind(args.head)
    if args.out is not None:
        cfg.out_dir = args.out
    if cfg.out_dir is None:
        cfg.out_dir = "out"
    cfg.validate()
    return cfg


def _require_head(cfg: ExperimentConfig) -> HeadKind:
    if cfg.head is None:
        raise ValueError("this command needs a head; pass --head or set it in the config")
    return cfg.head


def _load_model(args, cfg: ExperimentConfig):
    ckpt = args.checkpoint or Path(cfg.out_dir) / _require_head(cfg).value / "checkpoint.json"
    params, head_str, _ = load_checkpoint(ckpt)
    head = HeadKind(head_str)
    if cfg.head is not None and head is not cfg.head:
        raise ValueError(f"checkpoint holds head '{head.value}', expected '{cfg.head.value}'")
    return params, head


def _run_stage(name: str, args) -> int:
    """Run one stage of ``harness.STAGES`` for one head and print its summary."""
    cfg = _load_config(args)
    if name == "train":
        params, head = None, _require_head(cfg)
    else:
        params, head = _load_model(args, cfg)
    _, summary = harness.STAGES[name](cfg, head, params, lambda: harness.make_datasets(cfg),
                                      Path(cfg.out_dir) / head.value)
    print(summary)
    return 0


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    outcome = harness.run_all(cfg, cfg.out_dir)
    for head, stages in outcome.manifest["stages"].items():
        status = ", ".join(f"{stage}={state}" for stage, state in stages.items())
        print(f"{head}: {status}")
    print(f"artifacts in {outcome.out_dir}")
    return 0 if outcome.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ovabench",
        description="Train and compare softmax / one-vs-all probability heads "
                    "on a synthetic 2D task")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="experiment seed")
    common.add_argument("--out", default=None,
                        help="output directory (default: config out_dir or ./out)")
    common.add_argument("--head", choices=[h.value for h in HeadKind],
                        help="which probability head to use")
    common.add_argument("--checkpoint", help="explicit checkpoint path "
                                             "(default: <out>/<head>/checkpoint.json)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in harness.STAGES:
        sub.add_parser(name, parents=[common]).set_defaults(
            fn=functools.partial(_run_stage, name))
    sub.add_parser("run-all", parents=[common]).set_defaults(fn=cmd_run_all)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, harness.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
