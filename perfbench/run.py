"""eitnet benchmark: one command, three workloads, outputs checked on every run.

Run from the repository root:

    python3 perfbench/run.py --workload infer --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics.  ``--trace 1`` runs every input twice in turn, untraced
and then traced, checks both give identical outputs, and prints the
per-layer metrics.  End-to-end timings are scaled to a reference host
speed (hostspeed.py); the info line also holds them unscaled.  The last
stdout line is the result object; the line before it records the machine,
the environment, the sample counts and the latency percentiles.

``--smoke`` runs every workload at a tiny size in both modes and checks that
each metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Tracer, trace_points

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
# Setup runs at least SETUP_REPEATS times and until SETUP_MIN_S seconds have
# passed; setup_s is the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
# Seconds of setup or loop time per host-speed sample.
SPEED_EVERY_S = 0.25


def _import_program():
    """Import eitnet from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "eitnet" / "__init__.py").is_file():
        sys.exit(f"error: no eitnet sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import eitnet

    if Path(eitnet.__file__).resolve().parent != (src / "eitnet").resolve():
        sys.exit(f"error: imported eitnet from {eitnet.__file__}, not from {src}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    head = ROOT / ".git" / "HEAD"
    commit = head.read_text().strip() if head.is_file() else "unknown (not a git checkout)"
    if commit.startswith("ref: "):
        ref = ROOT / ".git" / commit[5:]
        commit = ref.read_text().strip() if ref.is_file() else commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _call(wl, inp):
    """(input, seconds or None, output, problems) of one call; a failure is kept, not raised."""
    try:
        dt, out = wl.call(inp)
        return inp, dt, out, wl.check(inp, out)
    except Exception as exc:  # a failed call is counted, the run goes on
        return inp, None, None, [f"{wl.name}: {type(exc).__name__}: {exc}"]


def _pass(wl, inputs, seconds: float, tracer=None, speed=None):
    """Closed loop of calls until `seconds` of wall time pass or the inputs run out.

    With a tracer, each input runs untraced and then traced, so both sides
    of the overhead ratio see the same inputs under the same machine load.
    With a HostSpeed, it is sampled between calls, once per SPEED_EVERY_S
    of loop time, and once more after the last call.
    """
    plain, traced = [], []
    points = trace_points() if tracer else None
    start = time.perf_counter()
    for inp in inputs:
        if time.perf_counter() - start >= seconds:
            break
        if speed is not None:
            speed.sample_due(SPEED_EVERY_S)
        plain.append(_call(wl, inp))
        if tracer:
            with tracer.installed(points):
                traced.append(_call(wl, inp))
    if speed is not None:
        speed.sample_due(SPEED_EVERY_S)
        speed.sample()
    return plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up, measure and check one workload; returns (result, info)."""
    from workloads import OUTPUT_METRICS, WORKLOADS

    load_before = os.getloadavg()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        wl = WORKLOADS[name](seed, workdir, tiny=tiny)
        speed = HostSpeed()
        setup_raw = []
        repeats, min_s = (1, 0.0) if tiny else (SETUP_REPEATS, SETUP_MIN_S)
        speed.sample()
        while len(setup_raw) < repeats or sum(setup_raw) < min_s:
            start = time.perf_counter()
            wl.setup()
            setup_raw.append(time.perf_counter() - start)
            speed.sample_due(SPEED_EVERY_S)
        speed.sample()
        setup_s = [t * speed.scale() for t in setup_raw]
        loop_samples = len(speed.samples)

        problems = wl.input_problems()
        attempted = 0
        tracer = Tracer() if trace else None
        calls, traced = _pass(wl, wl.inputs(), seconds, tracer, None if trace else speed)
        for (_, _, out, _), (_, _, again, _) in zip(calls, traced):
            if out is not None and again is not None and wl.digest(out) != wl.digest(again):
                problems.append(f"{name}: traced output differs from untraced output")
        calls_all = calls + traced
        # The first call again: the program must be deterministic.
        _, _, again, _ = _call(wl, calls[0][0])
        if calls[0][2] is not None and (again is None or wl.digest(again) != wl.digest(calls[0][2])):
            problems.append(f"{name}: repeating the first call gave a different output")
        attempted += wl.ops_per_call * (len(calls_all) + 1)
        for *_, found in calls_all:
            problems.extend(found)
        if not tiny:
            golden_ops, found = wl.golden()
            attempted += golden_ops
            problems.extend(found)

        ok = [c for c in calls if c[1] is not None]
        durations = [c[1] for c in ok]
        if not durations:
            raise RuntimeError(f"every {name} call failed: {problems[:3]}")
        info = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "calls": len(calls),
            "ops": wl.ops_per_call * len(calls),
            "setup_s_samples": setup_s,
            "host_speed": speed.relative(),
        }
        if not trace:
            # Timings are scaled to the reference host speed (hostspeed.py).
            scaled = [t * speed.scale(loop_samples) for t in durations]
            items = sum(wl.items(c[2]) for c in ok)
            # Printed but not gated: a run's percentiles jump with the host
            # phase that held the deciding calls, more than the mean does.
            info["call_ms_p50"] = {"value": 1e3 * statistics.median(scaled), "unit": "ms"}
            info["call_ms_p99"] = {"value": 1e3 * percentile(scaled, 0.99), "unit": "ms"}
            info["raw"] = {
                "throughput_per_s": {"value": items / sum(durations), "unit": "1/s"},
                "setup_s": {"value": statistics.median(setup_raw), "unit": "s"},
            }
            metrics = {
                "throughput_per_s": (items / sum(scaled), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(setup_s), "s"),
            }
        else:
            pairs = [(c, t) for c, t in zip(calls, traced) if c[1] is not None and t[1] is not None]
            plain_s = sum(c[1] for c, _ in pairs)
            traced_s = sum(t[1] for _, t in pairs)
            _, root_ns = tracer.summary()
            metrics = tracer.layer_metrics(ops=wl.ops_per_call * len(traced))
            found = wl.layer_metrics([t[2] for _, t in pairs])
            for metric, unit in OUTPUT_METRICS:
                metrics[metric] = found.get(metric, (0.0, unit))
            metrics["trace.uncovered_share"] = (1.0 - root_ns / 1e9 / traced_s, "ratio")
            metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{name}.csv")
            info["spans"] = len(tracer.names)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(len(problems), attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info["failed_ratio"] = failed / attempted
    info["problems"] = problems[:20]
    info["loadavg_before"] = load_before
    info["loadavg_after"] = os.getloadavg()
    return result, info


def smoke() -> int:
    """Tiny run of every workload in both modes.

    Every named metric must appear with its unit, every trace point must
    exist, and every per-layer metric must be nonzero on some workload, so a
    layer that went untraced cannot pass for a saving.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = [f"trace point {o.__name__}.{a} does not exist" for o, a, _ in trace_points() if a not in vars(o)]
    if errors:
        for line in errors:
            print(line, file=sys.stderr)
        print(f"smoke: {len(errors)} problems")
        return 1
    before = [(o, a, vars(o)[a]) for o, a, _ in trace_points()]
    reached = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, info = run_workload(workload, seed=1, seconds=0.1, trace=bool(trace), tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{workload} trace={trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"]:
                errors.append(f"{workload} trace={trace}: {info['problems']}")
            if trace:
                reached.update(k for k, v in result["metrics"].items() if v["value"] != 0)
    errors.extend(f"{m} reads 0 on every workload" for m in wanted[1] if m not in reached)
    if any(vars(o)[a] is not f for o, a, f in before):
        errors.append("tracing left a wrapper installed")
    for line in errors:
        print(line, file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("infer", "ablate", "stream"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info["environment"] = environment()
    OUT_DIR.mkdir(exist_ok=True)
    record = {"info": info, "result": result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
