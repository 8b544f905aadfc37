"""Record this environment's golden digests in ``digests.json``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

For each config of ``test_golden.CONFIGS`` it rewrites ``data`` and this
environment's entry under ``trees``, and keeps the entries of other
environments.  A change that moves bytes on purpose deletes ``digests.json``
first and reruns the script in each environment it can, and lists the
changed files.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CONFIGS, GOLDEN, environment_key, run_digests  # noqa: E402


def main() -> None:
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    key = environment_key()
    for name, config in CONFIGS.items():
        golden = goldens.setdefault(name, {"data": {}, "trees": {}})
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_digests(Path(tmp), config)
        golden["data"] = {p: d for p, d in digests.items() if p.startswith("data/")}
        golden["trees"][key] = {p: d for p, d in digests.items() if not p.startswith("data/")}
        print(f"{name}: {len(digests)} digests for {key!r}")
    GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
