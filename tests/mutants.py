"""Mutation sweep of ``src/ovabench``: which one-edit mutants do the tests miss?

Run from the repository root (standard library only; pytest does not collect
this file)::

    python tests/mutants.py [--workers 2] [module ...]

Each mutant makes one edit to one module:

- delete one statement, leaving ``pass`` in its place (not a docstring, an
  import, a nested ``def``, a ``return``, a ``raise``, or an ``if`` whose body
  ends in ``raise``);
- unwrap one ``with``, so its body runs without the context manager;
- drop one decorator (not ``cache``, ``cached_property`` or ``classmethod``).

A mutant is killed when the module's test file plus ``tests/test_golden.py``
fail, crash or time out.  Each survivor of that pass is rerun against every
test file but ``tests/test_acceptance.py``, and the mutants that still pass
are listed.  The checkout is never edited: each worker mutates its own copy of
``src/`` and ``tests/`` in a temporary directory.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "ovabench"
KEPT_DECORATORS = {"cache", "cached_property", "classmethod"}
# pytest in a child whose address space is capped, so a mutant that allocates
# without bound fails there instead of exhausting the machine's memory
PYTEST = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
          "import pytest; sys.exit(pytest.main(sys.argv[1:]))")


@dataclass(frozen=True)
class Mutant:
    module: str  # e.g. "heads"
    where: str  # enclosing function or class, e.g. "heads._loss_and_logit_gradient"
    line: int
    what: str
    start: int  # byte span of the module's source that ``text`` replaces
    end: int
    text: bytes

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text + source[self.end:]

    def __str__(self) -> str:
        return f"{self.where}:{self.line} {self.what}"


def _is_raise_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and isinstance(node.body[-1], ast.Raise)


def _skipped(node: ast.stmt, in_function: bool) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom, ast.Return, ast.Raise, ast.Pass)):
        return True
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return True  # docstrings
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and in_function:
        return True
    return _is_raise_guard(node)


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def mutants(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of one module's source, in source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    def first_line(node: ast.AST) -> str:
        return lines[node.lineno - 1].decode().strip()

    found: list[Mutant] = []

    def visit(body: list[ast.stmt], scope: list[str], in_function: bool) -> None:
        where = ".".join([module, *scope])
        for node in body:
            decorators = getattr(node, "decorator_list", [])
            if not _skipped(node, in_function):
                first = decorators[0] if decorators else node
                start = offset(first.lineno, first.col_offset - bool(decorators))  # the "@"
                found.append(Mutant(module, where, node.lineno, f"delete `{first_line(node)}`",
                                    start, offset(node.end_lineno, node.end_col_offset), b"pass"))
            for dec in decorators:
                if _decorator_name(dec) not in KEPT_DECORATORS:
                    found.append(Mutant(module, where, dec.lineno,
                                        f"drop `{first_line(dec)}` of {node.name}",
                                        offset(dec.lineno, dec.col_offset - 1),
                                        offset(dec.end_lineno, dec.end_col_offset), b""))
            if isinstance(node, (ast.With, ast.AsyncWith)):
                last = node.items[-1].optional_vars or node.items[-1].context_expr
                colon = source.index(b":", offset(last.end_lineno, last.end_col_offset))
                found.append(Mutant(module, where, node.lineno, f"unwrap `{first_line(node)}`",
                                    offset(node.lineno, node.col_offset), colon + 1,
                                    b"if True:"))
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            inner = [*scope, node.name] if named else scope
            function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner, function)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner, function)
            for case in getattr(node, "cases", []):
                visit(case.body, inner, function)

    visit(ast.parse(source).body, [], False)
    for mutant in found:  # a mutant that does not compile would be a bug here
        compile(mutant.apply(source), f"{module}.py", "exec")
    return found


class Workers:
    """Copies of ``src/`` and ``tests/``, one per worker, each mutated in turn."""

    def __init__(self, scratch: Path, count: int):
        self.free: queue.Queue[Path] = queue.Queue()
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for i in range(count):
            copy = scratch / f"worker{i}"
            for part in ("src", "tests", "pyproject.toml"):
                if (ROOT / part).is_dir():
                    shutil.copytree(ROOT / part, copy / part, ignore=ignore)
                else:
                    shutil.copy2(ROOT / part, copy / part)
            self.free.put(copy)

    def run(self, tests: list[str], timeout: float,
            mutant: Mutant | None = None) -> tuple[str, float]:
        """Run ``tests`` in a free copy, with ``mutant`` applied if given:
        "passed", "failed" or "timeout", and the seconds it took."""
        copy = self.free.get()
        path = copy / PACKAGE / f"{mutant.module}.py" if mutant else None
        original = path.read_bytes() if path else b""
        try:
            if path:
                path.write_bytes(mutant.apply(original))
            env = {**os.environ, "PYTHONPATH": str(copy / "src"), "OPENBLAS_NUM_THREADS": "1",
                   "PYTHONDONTWRITEBYTECODE": "1"}
            began = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", PYTEST, "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                start_new_session=True)
            try:
                status = "passed" if proc.wait(timeout) == 0 else "failed"
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the tests' own subprocesses too
                proc.wait()
                status = "timeout"
            return status, time.perf_counter() - began
        finally:
            if path:
                path.write_bytes(original)
            self.free.put(copy)


def _test_files(module: str) -> list[str]:
    own = f"tests/test_{module}.py"
    return [own, "tests/test_golden.py"] if (ROOT / own).is_file() else ["tests/test_golden.py"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="*", help="modules of src/ovabench (default: all)")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    modules = args.modules or sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py"))
    everything = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py")
                        if p.name != "test_acceptance.py")
    found = [m for module in modules
             for m in mutants(module, (ROOT / PACKAGE / f"{module}.py").read_bytes())]
    print(f"{len(found)} mutants of {', '.join(modules)}; {args.workers} workers", flush=True)

    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ovabench-mutants-") as scratch, \
            ThreadPoolExecutor(args.workers) as pool:
        workers = Workers(Path(scratch), args.workers)
        limits = {}  # the unmutated tests must pass; a mutant gets 10x their time
        for tests in {tuple(_test_files(m)) for m in modules} | {tuple(everything)}:
            status, seconds = workers.run(list(tests), timeout=3600)
            if status != "passed":
                print(f"the unmutated checkout fails {' '.join(tests)}", file=sys.stderr)
                return 1
            limits[tests] = 10 * seconds + 30

        def outcome(m: Mutant, tests: list[str]) -> str:
            return workers.run(tests, limits[tuple(tests)], m)[0]

        survivors, timeouts = [], 0
        statuses = pool.map(lambda m: outcome(m, _test_files(m.module)), found)
        for done, (mutant, status) in enumerate(zip(found, statuses), 1):
            timeouts += status == "timeout"
            if status == "passed":
                survivors.append(mutant)
                print(f"  survives its module's tests: {mutant}", flush=True)
            if done % 50 == 0:
                print(f"{done}/{len(found)} run, {time.perf_counter() - began:.0f} s", flush=True)
        statuses = pool.map(lambda m: outcome(m, everything), survivors)
        final = [m for m, status in zip(survivors, statuses) if status == "passed"]

    print(f"{len(found)} mutants: {len(found) - len(survivors)} killed "
          f"({timeouts} by timeout), {len(survivors)} survived the first pass, "
          f"{len(final)} survive every non-acceptance test; {time.perf_counter() - began:.0f} s")
    for mutant in final:
        print(f"  {mutant}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
