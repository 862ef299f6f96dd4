"""hyperlab benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload transport-forms --seed 7 \\
        --seconds 30 --trace 0

Each pass of a workload runs in a fresh child process (perfbench/child.py),
one at a time.  A run starts passes until the next one would end after
--seconds (and makes at least MIN_PASSES), then starts set-up-only
processes until it has MIN_SETUPS set-up times.  It reports medians.

The CPU speed of the host this was built on switches between states up to
2x apart that last from seconds to minutes, so raw times of one
configuration measured minutes apart differ by up to 2x.  Every child
therefore also times a fixed probe (child.probe_times, no hyperlab code),
and `wall_s` and `setup_s` are the measured times scaled by PROBE_REF_S
over the run's mean probe time: times at one reference host speed.  The
raw times and the probe are reported beside them.

With --trace 1 it adds one traced pass and prints the per-layer metrics
instead of the end-to-end ones.  `--workload all` runs every workload.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it are the readable report:
medians with quartiles and sample counts, op failures, output drift and
the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("transport-forms", "whittaker-peaks", "octagon-orbits",
             "packet-shell")
MIN_PASSES = 2
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PROBE_REF_S = 0.05  # about the probe's time when the host runs fast


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, work: Path,
              deadline: float) -> dict:
    """Start one child, wait for it, and return its result with timings."""
    out = work / f"{mode}-{time.monotonic_ns()}"
    out.mkdir()
    result_file = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
           str(out), str(result_file)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    ended = time.monotonic()
    if proc.returncode != 0 or not result_file.exists():
        raise ChildFailed(f"{mode} child of {workload} exited "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(result_file.read_text("utf-8"))
    result["setup_s"] = result["setup_done"] - spawned
    result["process_s"] = ended - spawned
    result["spans_file"] = str(result_file) + ".spans.json"
    return result


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of a sample of at least two values."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(),
            **{k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path, deadline: float) -> dict:
    """All passes of one workload; returns metrics, samples and ops."""
    def child(mode):
        return run_child(workload, seed, mode, work, deadline)

    load_start = os.getloadavg()[0]
    started = time.monotonic()
    passes = []
    while len(passes) < MIN_PASSES or (
            time.monotonic() - started
            + max(p["process_s"] for p in passes) <= seconds):
        passes.append(child("pass"))
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(child("setup"))
    traced = child("traced") if trace else None
    ops = [op for p in passes + ([traced] if traced else []) for op in p["ops"]]
    probes = [t for c in setups for t in c["probe"]]
    # the mean, not the median: the probe times are bimodal when the host
    # switches state, and a pass's time averages over the states it meets
    speed = PROBE_REF_S / statistics.fmean(probes)
    samples = {"wall_s": [p["wall_s"] * speed for p in passes],
               "setup_s": [c["setup_s"] * speed for c in setups],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
               "process.wall_raw_s": [p["wall_s"] for p in passes],
               "process.setup_raw_s": [c["setup_s"] for c in setups],
               "process.host_probe_s": probes,
               "process.cpu_s": [p["cpu_s"] for p in passes]}
    wall = statistics.median(samples["wall_s"])
    drifts = [op["drift"] for op in ops if op["drift"] is not None]
    failed = sum(1 for op in ops if op["failures"])
    res = {
        "workload": workload, "samples": samples, "ops": ops,
        "attempted": len(ops), "failed": failed,
        "ops_failed_frac": failed / len(ops),
        "output_drift": max(drifts) if drifts else 0.0,
        "compared_ops": len(drifts),
        "versions": passes[0]["versions"],
        "load_1min": [load_start, os.getloadavg()[0]],
        "restored": traced["restored"] if traced else True,
        "end_to_end": {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(samples["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MiB"),
        },
    }
    if traced:
        layers = layer_metrics(read_spans(traced["spans_file"]), workload)
        layers["cli.bytes_written"] = (traced["bytes_written"], "count")
        for name in ("process.cpu_s", "process.wall_raw_s",
                     "process.setup_raw_s", "process.host_probe_s"):
            layers[name] = (statistics.median(samples[name]), "s")
        layers["process.trace_overhead_s"] = (
            traced["wall_s"] * speed - wall, "s")
        layers["check.ops_failed_frac"] = (res["ops_failed_frac"], "ratio")
        layers["check.output_drift"] = (res["output_drift"], "ratio")
        res["per_layer"] = layers
        keep = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
        shutil.copyfile(traced["spans_file"], keep)
        res["spans_kept"] = str(keep.relative_to(ROOT))
    return res


def report(res: dict) -> None:
    w = res["workload"]
    print(f"== {w}: {res['attempted']} ops attempted, {res['failed']} failed "
          f"(ops_failed_frac {res['ops_failed_frac']:.4g}), output_drift "
          f"{res['output_drift']:.3g} over {res['compared_ops']} compared ops")
    for name, vals in res["samples"].items():
        s = spread(vals)
        unit = "MiB" if name == "peak_rss_mb" else "s"
        print(f"{w} {name} = {s['median']:.6g} {unit} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    for op in res["ops"]:
        if op["failures"]:
            print(f"{w} FAILED {op['name']}: {'; '.join(op['failures'])}")
    for name, (value, unit) in res.get("per_layer", {}).items():
        print(f"{w} {name} = {value:.6g} {unit}")
    if "spans_kept" in res:
        print(f"{w} spans written to {res['spans_kept']}")
    print(f"{w} env load_1min start/end {res['load_1min']} "
          f"versions {json.dumps(res['versions'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=7,
                    help="7, the default, is the seed the references hold")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hyperlab" / "__init__.py").is_file():
        print(f"no hyperlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir()
    print(f"env {json.dumps(environment())}")
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                work, deadline) for n in names]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for res in results:
        report(res)
        chosen = res["per_layer"] if args.trace else res["end_to_end"]
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["restored"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
