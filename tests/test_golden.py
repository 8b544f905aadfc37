"""Golden digests: the sha256 of every file of small ``run-all --seed 0`` trees.

``data/`` depends on numpy's generators only, so it is compared everywhere.
The rest of the tree depends on the numpy build, its SIMD level and the BLAS
kernel, so it is compared only where ``golden/digests.json`` holds a golden
for the config and the running environment's key; elsewhere the test prints
the key and the digests (``pytest tests/test_golden.py -s``).
``golden/regenerate.py`` records them.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from ovabench.harness import ExperimentConfig, run_all

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

# The small config CI's console-script step runs.
CONFIG = {"data": {"n_per_class": 30}, "optim": {"steps": 50, "batch_size": 16},
          "landscape": {"resolution": 10}, "metrics": {"num_thresholds": 11},
          "ood": {"n": 30}, "seed": 0}
# The same with more rows than one ``ioutil.CSV_BLOCK_ROWS`` block: 5000-row
# data and shifted-prediction files, 5030-row prediction dumps and centers
# tables, and a 4225-row landscape with a 0.0 grid line.
BLOCKS = {**CONFIG, "data": {"n_per_class": 1000}, "landscape": {"resolution": 65}}
CONFIGS = {"small": CONFIG, "blocks": BLOCKS}


def _openblas() -> tuple[str | None, int | None]:
    """OpenBLAS's core name and thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None, None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for core, threads in (("scipy_openblas_get_corename64_",
                               "scipy_openblas_get_num_threads64_"),
                              ("openblas_get_corename", "openblas_get_num_threads")):
            if hasattr(handle, core) and hasattr(handle, threads):
                get_core, get_threads = getattr(handle, core), getattr(handle, threads)
                get_core.argtypes, get_core.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_core().decode(), int(get_threads())
    return None, None


def environment_key() -> str:
    """What a tree's bits depend on beyond the source: Python, numpy, the SIMD
    features numpy's baseline and dispatch use here, the BLAS and its kernel and
    threads, and the C library."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    core, threads = _openblas()
    return (f"python {platform.python_version()}; numpy {np.__version__}; "
            f"baseline {' '.join(umath.__cpu_baseline__)}; dispatch {' '.join(found)}; "
            f"blas {blas.get('name')} {blas.get('version')}; "
            f"openblas {core}, threads {threads}; libc {' '.join(platform.libc_ver())}")


def run_digests(out: Path, config: dict) -> dict[str, str]:
    """Run ``config`` into ``out``; the sha256 of each file, keyed by its POSIX path there."""
    assert run_all(ExperimentConfig.from_dict(config), out).ok
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def check_against_golden(name: str, out: Path) -> None:
    golden = json.loads(GOLDEN.read_text())[name]
    digests = run_digests(out, CONFIGS[name])
    assert {p: d for p, d in digests.items() if p.startswith("data/")} == golden["data"]
    key = environment_key()
    if key not in golden["trees"]:
        print(f"no golden {name} tree for {key!r}; its digests:\n{json.dumps(digests, indent=1)}")
        return
    want = {**golden["data"], **golden["trees"][key]}
    assert digests.keys() == want.keys()
    changed = [p for p in digests if digests[p] != want[p]]
    assert not changed, f"files whose bytes differ from the golden: {changed}"


def test_run_all_tree_matches_the_golden_digests(tmp_path):
    check_against_golden("small", tmp_path)


def test_a_tree_of_several_csv_blocks_matches_its_golden_digests(tmp_path):
    check_against_golden("blocks", tmp_path)
