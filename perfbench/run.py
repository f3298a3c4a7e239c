"""nandevolve benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload ga_paper --seed 42 --seconds 25 --trace 0

With --trace 0 it repeats untraced passes of the workload for about
--seconds (at least two, whose outputs must be byte-identical) and reports
the end-to-end metrics, timed on the slowest pass. With --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics from the traced one. Every output is
checked; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (Python version, nproc,
checksums, counts) goes to .bench_out/result-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 9

# Run in a fresh interpreter: import the benchmark and the program, build the
# workload's inputs, then report ready. The parent times spawn to "ready".
_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.WORKLOADS[sys.argv[2]].prepare(int(sys.argv[3]), sys.argv[4] == '1'); "
    "print('ready', flush=True)"
)


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric this mode must print, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median seconds from spawning a fresh interpreter until its first
    operation's inputs are ready."""
    times = []
    argv = [sys.executable, "-c", _SETUP_PROBE, str(HERE), workload, str(seed), "1" if tiny else "0"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times)


def _timed_pass(wl, inputs, op_times: list[float], call_op=None):
    def call(fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return call_op(fn, *args, **kwargs) if call_op else fn(*args, **kwargs)
        finally:
            op_times.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    result = wl.run(inputs, call)
    return result, time.perf_counter() - t0


def _settle(wl, inputs, p) -> tuple[str, set[int]]:
    """Check a pass outside the timed region, then drop its raw outputs so
    that they do not add to the measured memory. Returns the pass's output
    digest and the operations that failed."""
    failed, digest = wl.check(inputs, p), p.digest()
    p.outputs.clear()
    p.results.clear()
    return digest, failed


def _committed(workload: str, seed: int, tiny: bool, expected: dict | None) -> dict | None:
    """Committed checksum for this workload and seed, if there is one."""
    if expected is None:
        expected = json.loads(EXPECTED.read_text())
    entry = expected["tiny" if tiny else "full"].get(workload)
    if entry is None or (entry["seed"] is not None and entry["seed"] != seed):
        return None
    return entry


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        expected: dict | None = None) -> dict:
    """Run one workload and return the full result record."""
    import workloads
    wl = workloads.WORKLOADS[workload]
    committed = _committed(workload, seed, tiny, expected)
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    units = metric_units(trace)
    setup_s = None if trace else measure_setup(workload, seed, tiny)
    inputs = wl.prepare(seed, tiny)

    passes, walls, op_times, settled = [], [], [], []
    start = time.perf_counter()
    while True:
        pass_ops: list[float] = []
        result, wall = _timed_pass(wl, inputs, pass_ops)
        settled.append(_settle(wl, inputs, result))
        passes.append(result)
        walls.append(wall)
        op_times.append(pass_ops)
        elapsed = time.perf_counter() - start
        if trace or (len(passes) >= 2 and elapsed + statistics.median(walls) > seconds):
            break
    record["pass_walls_s"] = walls
    record["pass_op_s"] = op_times

    if trace:
        import tracer as tracing
        tr = tracing.Tracer()
        restore = tr.install()
        try:
            traced, traced_wall = _timed_pass(wl, inputs, [], tr.op)
        finally:
            restore()
        workloads.OUT.mkdir(exist_ok=True)
        tr.write(workloads.OUT / f"spans-{workload}")
        settled.append(_settle(wl, inputs, traced))
        passes.append(traced)
        metrics = tracing.layer_metrics(tr, traced.genomes, traced.leaves, traced.trace_rows)
        metrics["trace.overhead"] = traced_wall / walls[0]
        counts = {k: v for k, v in metrics.items() if units[k] == "count"}
        record["layer_counts"] = counts
        if committed is not None and "layer_counts" in committed:
            record["layer_counts_match"] = counts == committed["layer_counts"]
    else:
        # The host's CPU clock follows the load of other tenants: the same
        # pass can take 1.7 times as long a minute later. The slowest pass ran
        # nearest the sustained clock and moves least between runs, so every
        # timing comes from it.
        slowest = max(range(len(passes)), key=walls.__getitem__)
        ops = op_times[slowest]
        metrics = {
            "setup_s": setup_s,
            "wall_s": walls[slowest],
            "op_p50_ms": 1e3 * statistics.median(ops),
            "op_p90_ms": 1e3 * (statistics.quantiles(ops, n=10)[-1] if len(ops) > 1 else ops[0]),
            "circuits_per_s": passes[slowest].circuits / walls[slowest],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    # Failures: an operation fails if its own check fails, if its pass's
    # outputs differ from the first pass's, or if its pass's checksum differs
    # from the committed one.
    failed = attempted = 0
    reference = settled[0][0]
    mismatches = []
    for p, (digest, bad) in zip(passes, settled):
        if digest != reference:
            mismatches.append("outputs differ between passes")
            bad = set(range(p.ops))
        if committed is not None:
            for key, want in committed["checksum"].items():
                if p.checksum.get(key) != want:
                    mismatches.append(f"{key}: got {p.checksum.get(key)!r}, committed {want!r}")
                    bad = set(range(p.ops))
        attempted += p.ops
        failed += len(bad)
    once = wl.run_checks(inputs)
    if once:
        mismatches.extend(once)
        failed = attempted
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record.update({
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "checksum": passes[0].checksum,
        "checksum_committed": committed is not None,
        "mismatches": sorted(set(mismatches)),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })
    return record


def report(record: dict) -> str:
    """Human-readable lines; the JSON result line is printed after them."""
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"python={record['python']} nproc={record['nproc']} passes={record['passes']}",
    ]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'fail_frac':<32} {record['fail_frac']:.6g} ratio "
                 f"({record['failed']}/{record['attempted']})")
    lines.append(f"  checksum {json.dumps(record['checksum'], sort_keys=True)}"
                 f" (committed: {'checked' if record['checksum_committed'] else 'none for this seed'})")
    if "layer_counts_match" in record:
        lines.append(f"  layer counts match committed: {record['layer_counts_match']}")
    for m in record["mismatches"]:
        lines.append(f"  MISMATCH {m}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(report(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
