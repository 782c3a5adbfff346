"""One workload, one fresh interpreter: set-up, warm-up, repetitions.

Started by ``run.py`` (one worker at a time, threads pinned to 1,
``PYTHONHASHSEED=0``); prints a single JSON object on its last line.

Untraced (``--trace 0``): ``SETUP_REPS`` cold set-ups are timed — this
process's own imports + input build + warm-up, and the same in further
fresh interpreters (``--setup-only``) — then timed repetitions run with
``gc.collect(); gc.disable()`` around each, for ``--reps`` repetitions
or until ``--seconds`` have been measured (at least ``MIN_REPS``).
``host_s`` is the *fastest* repetition: this class of host alternates
between a quiet mode and one where a neighbour slows everything
1.4-2.3x for seconds to minutes, so the median of one window measures
the neighbour and the floor measures the program (every sample is still
reported).  Peak RSS is read before the oracle checks so the oracles'
memory is not charged to the program.

Traced (``--trace 1``): one untraced repetition, the same call once
more under spans + profiler, then the workload's probes.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before numpy/repro: a user pays the imports too

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir, "src"))
sys.path[:0] = [SRC, HERE]

import repro  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

# A parent/change comparison must never measure whatever ``repro``
# happens to be installed instead of this checkout's sources.
if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"repro was imported from {repro.__file__}, not from {SRC}")

SETUP_REPS = 3
MIN_REPS = 5
MAX_CRASHES = 2
OUT_DIR = os.path.join(HERE, "out")


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0  # Linux reports KiB


def _repetition(fn):
    """(result, wall seconds, cpu seconds) of one call, collector off."""
    gc.collect()
    gc.disable()
    try:
        c0 = _cpu_s()
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0, _cpu_s() - c0
    finally:
        gc.enable()


class Ops:
    """Oracle and determinism checks: attempted vs failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def run_checks(self, w: workloads.Workload, result) -> None:
        try:
            for name, ok, detail in w.checks(result):
                self.record(name, ok, detail)
        except Exception:  # an oracle that crashes is a failed op, not a lost run
            traceback.print_exc()
            self.record("oracle_checks", False, "raised; traceback on stderr")


def timed_pass(w: workloads.Workload, args, ops: Ops) -> dict:
    host, cpu, sims = [], [], []
    result = None
    crashes = 0
    started = time.perf_counter()
    while crashes < MAX_CRASHES:
        if args.reps is not None:
            if len(host) >= args.reps:
                break
        elif len(host) >= MIN_REPS and time.perf_counter() - started >= args.seconds:
            break
        try:
            result, wall, cpu_s = _repetition(w.run)
        except Exception:
            traceback.print_exc()
            crashes += 1
            ops.record("repetition", False, "raised; traceback on stderr")
            continue
        ops.record("repetition", True)
        host.append(wall)
        cpu.append(cpu_s)
        sims.append(w.simulated(result))
    peak = _peak_rss_mb()
    if not host:
        raise SystemExit(f"{w.name}: no repetition completed")
    ops.record(
        "simulated_identical_across_repetitions",
        all(s == sims[0] for s in sims),
        f"{len(sims)} repetitions",
    )
    ops.run_checks(w, result)
    return {
        "host_s": min(host),
        "host_s_samples": host,
        "cpu_s_samples": cpu,
        "peak_rss_mb": peak,
        "simulated": sims[0],
    }


def traced_pass(w: workloads.Workload, ops: Ops) -> dict:
    import layers
    import probes

    base, base_s, _cpu = _repetition(w.run)
    recorder = layers.SpanRecorder()
    (traced, traced_s, profile), _wall, _cpu = _repetition(
        lambda: layers.traced_call(w.run, recorder, w.name)
    )
    self_s, calls = layers.rollup(profile)
    by_span = recorder.by_name()
    simulated = w.simulated(traced)
    ops.record(
        "traced_equals_untraced", simulated == w.simulated(base), "simulated counters"
    )
    ops.run_checks(w, traced)
    probed, extra = probes.run(w, base, base_s)
    for name, ok, detail in extra:
        ops.record(name, ok, detail)

    per_layer = {name: 0.0 for name, _unit, _better in spec.per_layer()}
    for layer in spec.LAYERS:
        per_layer[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        per_layer[f"{layer}.calls"] = calls.get(layer, 0)
    per_layer["trace.overhead_x"] = traced_s / base_s
    per_layer.update(probed)
    per_layer.update(simulated)

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"trace-{w.name}.json")
    with open(trace_file, "w") as fh:
        json.dump(
            {
                "workload": w.name,
                "untraced_s": base_s,
                "traced_s": traced_s,
                "spans": recorder.spans,
                "spans_dropped": recorder.dropped,
                "by_span": by_span,
                "layers": {
                    layer: {"self_s": per_layer[f"{layer}.self_s"],
                            "calls": per_layer[f"{layer}.calls"]}
                    for layer in spec.LAYERS
                },
            },
            fh,
            indent=1,
        )
    return {
        "untraced_s": base_s,
        "traced_s": traced_s,
        "per_layer": per_layer,
        "by_span": by_span,
        "simulated": simulated,
    }


def cold_setup(args) -> float:
    """import + set-up seconds of this workload in one more fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1530)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the imports + set-up, print them, and stop")
    args = ap.parse_args()

    w = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    t0 = time.perf_counter()
    w.setup()
    # What a user waits before the first frame starts: the imports plus
    # the input build and the reduced-scale warm-up.
    setups = [IMPORT_S + time.perf_counter() - t0]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    if not args.trace:
        setups += [cold_setup(args) for _ in range(SETUP_REPS - 1)]

    ops = Ops()
    out = {
        "workload": w.name,
        "seed": args.seed,
        "scale": "smoke" if args.smoke else "full",
        "size": w.size,
        "trace": args.trace,
        "import_s": IMPORT_S,
        "setup_s_samples": setups,
        "setup_s": statistics.median(setups),
    }
    out.update(traced_pass(w, ops) if args.trace else timed_pass(w, args, ops))
    out["ops_attempted"] = ops.attempted
    out["failed_ops"] = len(ops.failures)
    out["failures"] = ops.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
