"""One ovabench process, as the ``ovabench`` console script would run it.

Usage::

    python -m bench.worker run|trace RESULT.json -- <ovabench CLI arguments>
    python -m bench.worker setup RESULT.json CONFIG.json SEED

``run`` times only the stage calls (a few dozen per process); ``trace``
records spans around every call in ``spans.TRACE_TARGETS`` and writes them
next to RESULT.json.  ``setup`` imports ovabench and generates the datasets
for a config, the set-up every workload pays.  RESULT.json gets monotonic
clock readings (nanoseconds, comparable across processes) so the parent can
measure start-up from the moment it spawned this process.

Only the standard library is imported before ovabench, so the start-up
measured here is the one a user pays.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    mode, result_path, *rest = argv
    if mode == "setup":
        config_path, seed = rest
        from ovabench import harness
        imported = time.monotonic_ns()
        with open(config_path) as fh:
            config = harness.ExperimentConfig.from_dict(json.load(fh))
        config.seed = int(seed)
        harness.make_datasets(config)
        done = time.monotonic_ns()
        with open(result_path, "w") as fh:
            json.dump({"imported_ns": imported, "done_ns": done}, fh)
        return 0

    if mode not in ("run", "trace") or rest[:1] != ["--"]:
        raise SystemExit(f"usage: python -m bench.worker run|trace RESULT -- ARGS (got {argv})")
    from ovabench import cli
    imported = time.monotonic_ns()
    from bench.spans import Tracer, span_cost_ns

    tracer = Tracer()
    tracer.install(full=mode == "trace")
    try:
        code = cli.main(rest[1:])
    finally:
        tracer.restore()
        tracer.save(result_path + ".spans.npz")
        with open(result_path, "w") as fh:
            json.dump({"imported_ns": imported,
                       "counters": tracer.counters, "missing": tracer.missing,
                       "span_cost_ns": span_cost_ns() if mode == "trace" else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
