"""ovabench benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload paper|eval_heavy|stages_cli|all \
        --seed N --seconds S --trace 0|1

The program is the checkout's ``src/ovabench``, run by a fresh interpreter
per ovabench command with the BLAS pinned to one thread, and the benchmark
and everything it starts pinned to one CPU.  A run first times
``SETUP_PROBES`` fresh interpreters that import ovabench and generate the
workload's datasets (``setup_s``), then runs the workload as many times as
fill ``--seconds`` at the speed of the first iteration (at least once), and
reports the median of each metric over the iterations.  Times are reported
at the nominal speed of ``bench/speed.py``'s probe, which runs on the same
CPU throughout; the raw times are printed and recorded too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics of the
traced iteration plus the tracing overhead (traced wall minus untraced
wall).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run writes a record (environment, per-iteration metrics, every check
and the sha256 of every artifact) under ``.bench_out/records``.  A run whose
artifact tree differs from an earlier run of the same workload, seed,
config and source fails its determinism check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is imported, here and in every child

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: import the benchmark as the package it is
    sys.path[0] = str(ROOT)

from bench.checks import (Check, check_manifest, check_metrics, check_sweep,  # noqa: E402
                          count_rows, tree_digest, tree_files)
from bench.layers import (EVAL_CALLS, Process, count, layer_metrics,  # noqa: E402
                          step_accounting, total_s)
from bench.spans import SpanTable  # noqa: E402
from bench.speed import (NOMINAL_PROBE_US, SpeedProbe, at_nominal_speed,  # noqa: E402
                         pin_to_one_cpu)
from bench.workloads import (DISTANCE_HEADS, END_TO_END, HEADS, PER_LAYER,  # noqa: E402
                             WORKLOADS, stages_for)

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 21
CHILD_TIMEOUT_S = 150


@dataclass
class Exit:
    code: int
    spawn_ns: int
    exit_ns: int
    cpu_s: float
    maxrss_mb: float


def spawn(cmd: list[str], cwd: Path, log: Path) -> Exit:
    """Run ``cmd`` to completion; wait4 gives its CPU time and peak RSS,
    including any children it waited for."""
    env = {**os.environ, **BLAS_ENV,
           "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])}
    with open(log, "ab") as out:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        end = time.monotonic_ns()
    return Exit(proc.returncode, start, end, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    cpu_s: float
    probe_us: float  # mean speed-probe time while the iteration ran
    peak_rss_mb: float
    train_s: float
    eval_s: float
    heads_trained: int
    processes: list[Process]
    checks: list[Check]
    tree_digest: str = ""
    files: dict[str, str] = field(default_factory=dict)


class Runner:
    def __init__(self, workload, seed: int, probe: SpeedProbe):
        from ovabench.harness import ExperimentConfig

        self.workload, self.seed, self.probe = workload, seed, probe
        self.work = OUT / "work" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (self.work / "config.json").write_text(json.dumps(workload.config, sort_keys=True))
        self.config = ExperimentConfig.from_dict(workload.config)
        self.log = self.work / "ovabench.log"
        self.load_checkpoint_ns: list[int] = []
        self.points = 0

    def _worker(self, mode: str, result: Path, *args: str) -> Exit:
        return spawn([sys.executable, "-m", "bench.worker", mode, str(result), *args],
                     self.work, self.log)

    def setup_s(self) -> tuple[float, float]:
        """Median over fresh interpreters of spawn -> make_datasets returned,
        and the mean speed-probe time meanwhile."""
        result = self.work / "setup.json"
        self._worker("setup", result, "config.json", str(self.seed))  # warm the bytecode cache
        times, since = [], self.probe.mark()
        for _ in range(SETUP_PROBES):
            ran = self._worker("setup", result, "config.json", str(self.seed))
            if ran.code != 0:
                raise RuntimeError(f"setup probe failed; see {self.log}")
            times.append((json.loads(result.read_text())["done_ns"] - ran.spawn_ns) / 1e9)
        return statistics.median(times), self.probe.mean_us(since)

    def commands(self) -> list[tuple[str, list[str]]]:
        common = ["--config", "config.json", "--seed", str(self.seed), "--out", "out"]
        if self.workload.mode == "run-all":
            return [("run-all", ["run-all", *common])]
        return [(stage, [stage, "--head", head, *common])
                for head in HEADS for stage in stages_for(head)]

    def iterate(self, traced: bool) -> Iteration:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        commands = self.commands()
        results = [self.work / f"proc{k}.json" for k in range(len(commands))]
        for result in results:
            result.unlink(missing_ok=True)
        since = self.probe.mark()
        exits = [self._worker("trace" if traced else "run", result, "--", *argv)
                 for result, (_, argv) in zip(results, commands)]
        probe_us = self.probe.mean_us(since)
        stage_checks, procs = [], []
        for result, (command, argv), ran in zip(results, commands, exits):
            stage_checks.append(Check(f"exit status of ovabench {' '.join(argv[:3])}",
                                      ran.code == 0, str(ran.code)))
            info = json.loads(result.read_text())
            procs.append(Process(command=command, spawn_ns=ran.spawn_ns,
                                 imported_ns=info["imported_ns"], exit_ns=ran.exit_ns,
                                 spans=SpanTable.load(str(result) + ".spans.npz"),
                                 counters=info["counters"],
                                 span_cost_ns=info["span_cost_ns"],
                                 missing=info["missing"]))
        return Iteration(
            traced=traced,
            wall_s=(exits[-1].exit_ns - exits[0].spawn_ns) / 1e9,
            cpu_s=sum(e.cpu_s for e in exits),
            probe_us=probe_us,
            peak_rss_mb=max(e.maxrss_mb for e in exits),
            train_s=total_s(procs, ["harness.train"]),
            eval_s=total_s(procs, EVAL_CALLS),
            heads_trained=count(procs, "harness.train"),
            checks=stage_checks, processes=procs)

    def check_outputs(self, it: Iteration, reference: Iteration | None) -> None:
        """Full output checks on the first iteration; later iterations must
        reproduce its artifact tree byte for byte."""
        out = self.work / "out"
        files = tree_files(out)
        it.tree_digest = tree_digest(files)
        if reference is not None:
            it.checks.append(Check("artifact tree identical to the run's first iteration",
                                   it.tree_digest == reference.tree_digest, it.tree_digest))
            return
        it.files = files
        it.checks.extend(self._content_checks(out))

    def _content_checks(self, out: Path) -> list:
        from ovabench.nncore import load_checkpoint

        checks = []
        if self.workload.mode == "run-all":
            checks += check_manifest(out, {h: stages_for(h) for h in HEADS})
        self.points = 0
        for head in HEADS:
            head_dir = out / head
            try:
                found, rows = check_metrics(head_dir)
                checks += found
                self.points += rows
                found, rows = check_sweep(head_dir, self.config.metrics.num_bins)
                checks += found
                self.points += rows
                self.points += count_rows(head_dir / "landscape.csv")
                if head in DISTANCE_HEADS:
                    self.points += count_rows(head_dir / "centers.csv", "point,")
                start = time.perf_counter_ns()
                _, loaded_head, _ = load_checkpoint(head_dir / "checkpoint.json")
                self.load_checkpoint_ns.append(time.perf_counter_ns() - start)
                checks.append(Check(f"{head}/checkpoint.json loads", loaded_head == head,
                                    loaded_head))
            except (OSError, ValueError, KeyError) as exc:
                checks.append(Check(f"{head} outputs readable", False, repr(exc)))
        return checks


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    import numpy  # noqa: F401 - loads the BLAS

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def run_git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            git = {"sha": run_git("rev-parse", "HEAD"),
                   "dirty": bool(run_git("status", "--porcelain", "--untracked-files=no"))}
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        blas_runtime = blas_threads()
    except OSError:
        blas_runtime = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "nominal_probe_us": NOMINAL_PROBE_US,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {"env": dict(BLAS_ENV), "runtime": blas_runtime},
        "git": git,
        "source_sha256": source_digest(),
    }


def determinism_check(key: str, digest: str):
    """Compare with the tree an earlier run recorded for the same key."""
    path = OUT / "trees.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    earlier = seen.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)
    return Check("artifact tree identical to earlier runs of this workload and seed",
                 earlier == digest, f"{digest} vs {earlier}")


# Per-layer times, put at nominal speed with the traced iteration's probe.
NORMALIZED = {name for name, unit, _ in PER_LAYER
              if unit in ("s", "ms", "us") and name != "trace.probe_us"}


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 probe: SpeedProbe) -> dict:
    """Run one workload; returns the result object and writes the run record."""
    runner = Runner(workload, seed, probe)
    setup_raw, setup_probe_us = runner.setup_s()
    optim = runner.config.optim
    iterations: list[Iteration] = []
    per_layer: list[dict] = []
    accounting: list[dict] = []

    def stage_rates(it: Iteration) -> dict[str, float]:
        """Throughput of the train and evaluation stages of an untraced iteration."""
        return {"harness.train_samples_per_s":
                optim.steps * optim.batch_size * it.heads_trained
                / at_nominal_speed(it.train_s, it.probe_us),
                "harness.eval_points_per_s":
                runner.points / at_nominal_speed(it.eval_s, it.probe_us)}

    def one_round():
        for traced in ([False, True] if trace else [False]):
            it = runner.iterate(traced)
            runner.check_outputs(it, iterations[0] if iterations else None)
            iterations.append(it)
        if trace:
            plain, traced_it = iterations[-2:]
            m = {name: at_nominal_speed(v, traced_it.probe_us) if name in NORMALIZED else v
                 for name, v in layer_metrics(traced_it.processes,
                                              runner.load_checkpoint_ns).items()}
            m["trace.overhead_s"] = (at_nominal_speed(traced_it.wall_s, traced_it.probe_us)
                                     - at_nominal_speed(plain.wall_s, plain.probe_us))
            m["trace.probe_us"] = traced_it.probe_us
            per_layer.append({**m, **stage_rates(plain)})
            accounting.append(step_accounting(traced_it.processes))

    one_round()
    for _ in range(round(seconds / sum(it.wall_s for it in iterations)) - 1):
        one_round()

    config_key = hashlib.sha256(json.dumps(workload.config, sort_keys=True).encode()).hexdigest()
    env = environment()
    key = f"{workload.name}|{seed}|{config_key}|{env['source_sha256']}"
    checks = [c for it in iterations for c in it.checks]
    checks.append(determinism_check(key, iterations[0].tree_digest))
    failed = sum(not c.ok for c in checks)

    plain = [it for it in iterations if not it.traced]
    missing = sorted({m for it in iterations for p in it.processes for m in p.missing})
    if trace:
        values = {name: statistics.median(m[name] for m in per_layer)
                  for name, *_ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(at_nominal_speed(it.wall_s, it.probe_us)
                                        for it in plain),
            "cpu_s": statistics.median(at_nominal_speed(it.cpu_s, it.probe_us)
                                       for it in plain),
            "setup_s": at_nominal_speed(setup_raw, setup_probe_us),
            "peak_rss_mb": statistics.median(it.peak_rss_mb for it in plain),
            "ok_ratio": (len(checks) - failed) / len(checks),
        }
        units = {name: unit for name, unit, *_ in END_TO_END}

    record = {
        "workload": asdict(workload), "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "setup_s": setup_raw, "setup_probe_us": setup_probe_us,
        "iterations": [{"traced": it.traced, "wall_s": it.wall_s, "cpu_s": it.cpu_s,
                        "probe_us": it.probe_us,
                        "peak_rss_mb": it.peak_rss_mb, "train_s": it.train_s,
                        "eval_s": it.eval_s, "tree_sha256": it.tree_digest,
                        **({} if it.traced else stage_rates(it))}
                       for it in iterations],
        "points_scored": runner.points,
        "not_traced": missing,
        "step_accounting": accounting,
        "files_sha256": iterations[0].files,
        "checks": [asdict(c) for c in checks],
        "metrics": values,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(runner.work / "out", ignore_errors=True)

    for c in checks:
        if not c.ok:
            print(f"FAILED CHECK {workload.name}: {c.name}: {c.detail}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if missing:
        print(f"{workload.name} not traced, the program has no such attribute: {missing}")
    print(f"{workload.name} artifact tree sha256 {iterations[0].tree_digest} "
          f"({len(iterations[0].files)} files)")
    print(f"{workload.name} raw, before speed normalization: setup_s {setup_raw!r}, "
          f"probe {setup_probe_us:.1f} us; per iteration (traced, wall_s, cpu_s, probe_us): "
          f"{[(it.traced, it.wall_s, it.cpu_s, round(it.probe_us, 1)) for it in iterations]}")
    for head, a in (accounting[0] if accounting else {}).items():
        print(f"{workload.name} step accounting {head}: step {a['step_us']:.2f} us = traced "
              f"parts {a['parts_us']:.2f} us + {a['step_us'] - a['parts_us']:.2f} us outside "
              f"them; tracing adds ~{a['tracing_us']:.2f} us per step (raw times)")
    for name, value in values.items():
        print(f"{workload.name} {name} = {value!r} {units[name]}")
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ovabench" / "__init__.py").is_file():
        print(f"error: no ovabench sources at {SRC / 'ovabench'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    allowed = os.sched_getaffinity(0)
    pin_to_one_cpu()
    try:
        with SpeedProbe() as probe:
            results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace), probe)
                       for name in names}
    finally:
        os.sched_setaffinity(0, allowed)
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
