"""Write perfbench/reference.json: every op's outputs on the default seed.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are the accepted ones; the benchmark
measures drift against this file.  It refuses to write when any op fails a
check other than the missing reference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import WORKLOADS  # noqa: E402
from workloads import DEFAULT_SEED, build_inputs, run_pass  # noqa: E402


def main() -> int:
    reference = {}
    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=work) as out:
            ops, _ = run_pass(workload, build_inputs(workload, DEFAULT_SEED),
                              DEFAULT_SEED, Path(out), {})
        bad = {op["name"]: op["failures"] for op in ops
               if op["failures"] != ["no stored reference"]}
        if bad:
            print(f"{workload}: failed ops {bad}", file=sys.stderr)
            return 1
        reference[workload] = {op["name"]: op["outputs"] for op in ops}
        print(f"{workload}: {len(ops)} ops")
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
