"""End-to-end host-time benchmark: six workloads, one command.

Driver form (one workload, one line of JSON last)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Full form (what a PR table is made from)::

    python3 benchmarks/e2e/run.py [--seed N] [--rounds R] [--reps K]
        [--only W] [--no-trace] [--smoke] [--out report.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json

This process only orchestrates: every measurement happens in a worker
subprocess (``worker.py``), one at a time — ``nproc`` is 2 and the
sharded workload forks two workers of its own — in a fresh interpreter
with BLAS threads pinned to 1 and a fixed hash seed.  The full form
makes R *interleaved* rounds over the workloads (round-robin, never
workload by workload): host-speed drift lasting a minute then lands on
every workload instead of on one, and a median over rounds removes it.
Each round gives one ``host_s`` per workload (the fastest of its K
repetitions); the report is their median and quartiles over rounds.
Exit status is non-zero when any oracle or determinism check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report as reporting  # noqa: E402
import spec  # noqa: E402

WORKER_TIMEOUT_S = 170  # the driver allows one run 180 s
DEFAULT_SEED = 1530


def run_worker(workload: str, seed: int, trace: int, smoke: bool,
               seconds: float | None = None, reps: int | None = None) -> dict:
    """One workload in a fresh interpreter; its JSON result.

    The worker leads its own process group so that a timeout also
    stops the DES workers it may have forked.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if reps is not None:
        cmd += ["--reps", str(reps)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    # No .pyc writes: every run compiles ``repro`` from source, so the
    # import share of setup_s does not depend on which run came first.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# -- driver form -------------------------------------------------------


def driver_run(args) -> int:
    res = run_worker(args.workload, args.seed, args.trace, args.smoke, seconds=args.seconds)
    if args.trace:
        units = {name: unit for name, unit, _better in spec.per_layer()}
        values = res["per_layer"]
    else:
        units = reporting.UNITS
        values = {name: res[name] for name in units}
    for failure in res["failures"]:
        print(f"FAILED {args.workload}: {failure}")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": res["failed_ops"] == 0,
        "attempted": res["ops_attempted"],
        "failed": res["failed_ops"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


# -- full form ---------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-python + numpy kernel.  Diagnoses a
    noisy round; never gates and never rescales a metric."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += (i * i) % 7
    a = np.arange(250_000, dtype=np.float64)
    for _ in range(40):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


def host_record() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def full_run(args) -> int:
    names = [args.only] if args.only else list(spec.WORKLOAD_NAMES)
    rounds, reps = (1, 2) if args.smoke and args.rounds is None else (args.rounds or 5, args.reps)
    runs: dict[str, list[dict]] = {n: [] for n in names}
    round_records = []
    for r in range(rounds):
        round_records.append({"calib_s": calibrate(), "loadavg_1m": os.getloadavg()[0]})
        for name in names:
            print(f"round {r + 1}/{rounds}: {name}", file=sys.stderr, flush=True)
            runs[name].append(run_worker(name, args.seed, 0, args.smoke, reps=reps))

    report = {
        "host": host_record(),
        "config": {"seed": args.seed, "rounds": rounds, "reps": reps,
                   "scale": "smoke" if args.smoke else "full"},
        "rounds": round_records,
        "workloads": {},
    }
    for name in names:
        rs = runs[name]
        failures = [f for r in rs for f in r["failures"]]
        attempted = sum(r["ops_attempted"] for r in rs) + 1
        if any(r["simulated"] != rs[0]["simulated"] for r in rs):
            failures.append("simulated_identical_across_rounds")
        samples = {m: [r[m] for r in rs] for m in reporting.UNITS}
        report["workloads"][name] = {
            "size": rs[0]["size"],
            "end_to_end": {
                m: reporting.summarize(samples[m], reporting.UNITS[m]) for m in samples
            },
            "host_s_repetitions": [s for r in rs for s in r["host_s_samples"]],
            "cpu_s_repetitions": [c for r in rs for c in r["cpu_s_samples"]],
            "simulated": rs[0]["simulated"],
            "ops_attempted": attempted,
            "failed_ops": len(failures),
            "failures": failures,
        }

    if not args.no_trace:
        for name in names:
            print(f"traced pass: {name}", file=sys.stderr, flush=True)
            t = run_worker(name, args.seed, 1, args.smoke)
            w = report["workloads"][name]
            w.update(per_layer=t["per_layer"], by_span=t["by_span"],
                     traced_s=t["traced_s"], untraced_s=t["untraced_s"])
            w["ops_attempted"] += t["ops_attempted"] + 1
            w["failures"] += t["failures"]
            if t["simulated"] != w["simulated"]:
                w["failures"].append("traced_simulated_equals_timed_rounds")
            w["failed_ops"] = len(w["failures"])

    out = args.out or os.path.join(HERE, "out", "report.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(reporting.format_report(report))
    print(f"\nreport written to {out}")
    return 1 if any(w["failed_ops"] for w in report["workloads"].values()) else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                    help="driver form: run this one workload and print one JSON line")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="driver form: keep measuring repetitions for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics")
    ap.add_argument("--rounds", type=int, default=None, help="interleaved rounds (default 5)")
    ap.add_argument("--reps", type=int, default=6, help="timed repetitions per round")
    ap.add_argument("--only", choices=spec.WORKLOAD_NAMES, help="full form: just this workload")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced pass")
    ap.add_argument("--smoke", action="store_true", help="toy sizes, same names (~30 s)")
    ap.add_argument("--out", help="where to write the report (default benchmarks/e2e/out/report.json)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two reports; A is the base")
    args = ap.parse_args()

    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            text, ok = reporting.compare(json.load(fa), json.load(fb))
        print(text)
        return 0 if ok else 1
    try:
        return driver_run(args) if args.workload else full_run(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
