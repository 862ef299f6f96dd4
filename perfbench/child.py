"""One workload process: set up, optionally run one checked pass, report.

    python3 perfbench/child.py WORKLOAD SEED MODE OUT_DIR RESULT_FILE

MODE is `setup` (build the inputs and stop), `pass` (one untraced pass) or
`traced` (one pass with spans around every layer's public calls; the spans
go to RESULT_FILE with the suffix `.spans.json`).  The result is a JSON
file; `setup_done` is a CLOCK_MONOTONIC reading, which the parent compares
with its own reading taken just before it started this process.

After its set-up and after its pass the child also times a fixed probe
that uses no hyperlab code (`probe_times`); the parent uses the probe to
correct for the host's changes of speed.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

import hyperlab  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import build_inputs, run_pass  # noqa: E402


def probe_times(repeats: int = 3) -> list[float]:
    """Times of a fixed pure-Python loop plus a small ODE solve."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5
        solve_ivp(lambda t, y: [y[1], -y[0]], (0.0, 200.0), [1.0, 0.0],
                  method="DOP853", rtol=1e-12, atol=1e-12)
        times.append(time.perf_counter() - t0)
    return times


def main(argv: list[str]) -> int:
    workload, seed, mode, out, result_file = argv
    seed = int(seed)
    if not Path(hyperlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hyperlab imported from {hyperlab.__file__}, "
                         f"not from {ROOT / 'src'}")
    tracer = Tracer(f"{workload}:seed{seed}:traced") if mode == "traced" \
        else None
    if tracer:
        tracer.install()
        with tracer.span("bench.setup"):
            inputs = build_inputs(workload, seed)
    else:
        inputs = build_inputs(workload, seed)
    result = {"setup_done": time.monotonic(), "probe": probe_times(),
              "versions": {"python": platform.python_version(),
                           "numpy": np.__version__, "scipy": scipy.__version__}}
    if mode != "setup":
        reference = json.loads(
            (Path(__file__).parent / "reference.json").read_text("utf-8"))
        out = Path(out)
        cpu0, t0 = time.process_time(), time.perf_counter()
        if tracer:
            with tracer.span("bench.pass"):
                ops, nbytes = run_pass(workload, inputs, seed, out, reference)
        else:
            ops, nbytes = run_pass(workload, inputs, seed, out, reference)
        result.update(wall_s=time.perf_counter() - t0,
                      cpu_s=time.process_time() - cpu0,
                      ops=ops, bytes_written=nbytes)
        result["probe"] += probe_times()
        if tracer:
            result["restored"] = tracer.remove()
            tracer.write(result_file + ".spans.json")
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_file).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
