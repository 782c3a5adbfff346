"""Generate the committed perf baselines.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py
        [--out DIR] [--files BENCH_des.json ...] [--names NAME ...]

Runs every benchmark, computes the render equivalence check, and
writes ``BENCH_render.json``, ``BENCH_pipeline.json`` and
``BENCH_des.json`` to the repo root (or ``--out``).  ``--files``
regenerates only the named baseline files, leaving the others
committed as-is — used to add the DES-scale baselines without
re-baselining the render/pipeline kernels.  ``--names`` goes one step
finer: re-run only the named benchmarks and *merge* their fresh
entries into the committed files, preserving every other entry (and
the file's meta block) — this is what ``repro bench --update --only
NAME`` forwards to.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


def collect(names=None, repeats_override=None, files=None) -> dict[str, list[dict]]:
    """Run benchmarks; returns {baseline filename: [entries]}."""
    from benchmarks.perf.suite import BENCHMARKS

    by_file: dict[str, list[dict]] = {}
    for name, (fn, filename) in BENCHMARKS.items():
        if names is not None and name not in names:
            continue
        if files is not None and filename not in files:
            continue
        print(f"  running {name} ...", flush=True)
        entry = fn(repeats_override) if repeats_override else fn()
        print(f"    {entry['seconds']:.4f} s")
        by_file.setdefault(filename, []).append(entry)
    return by_file


def _render_meta() -> dict:
    """The render baseline's meta block: the equivalence check."""
    from benchmarks.perf.suite import render_equivalence_maxdiff

    maxdiff = render_equivalence_maxdiff()
    print(f"render equivalence maxdiff {maxdiff:.2e}")
    return {"serial_equivalence_maxdiff": maxdiff}


def _des_meta(entries: list[dict]) -> dict:
    """The DES baseline's meta block: the direct-send wall-clock envelope.

    The engine loop itself is the guarded ``des_engine_loop`` entry.
    """
    meta: dict = {}
    ds = next((e for e in entries if e["name"] == "des_directsend_2048"), None)
    if ds is not None:
        meta["directsend_2048_wall_s"] = ds["seconds"]
        meta["directsend_2048_wall_budget_s"] = ds["wall_budget_s"]
    return meta


def _parallel_meta(entries: list[dict]) -> dict:
    """The parallel baseline's meta block.

    Simulated-time numbers are worker- and host-independent (bitwise
    invariance is the backend's contract); the wall-clock curve is an
    honest measurement on this host, so the CPU count rides along —
    on a single-core host the workers time-share and the "speedup"
    records synchronization overhead instead.
    """
    import os

    by_name = {e["name"]: e for e in entries}
    meta: dict = {"host_cpu_count": os.cpu_count()}
    scaling = by_name.get("parallel_strong_scaling_8192")
    if scaling is not None:
        meta["strong_scaling_8192_wall_s"] = scaling["workers_wall_s"]
        meta["speedup_4w_vs_1w"] = scaling["speedup_4w_vs_1w"]
    full = by_name.get("parallel_directsend_32768")
    limited = by_name.get("parallel_directsend_32768_m2048")
    if full is not None and limited is not None:
        # Mechanical (transport-only) side of the paper's Fig. 8 story:
        # the DES replays injection/ejection serialization and hop
        # latencies but deliberately not the phase-level contention
        # law, so this ratio isolates the mechanical share of the
        # compositor-limiting win; the contention law widens it — see
        # model_vs_des_32k in benchmarks/.
        ratio = full["sim_elapsed_s"] / limited["sim_elapsed_s"]
        meta["mechanical_limiting_ratio_32k"] = ratio
        print(f"32K compositor limiting (DES-mechanical): m=n / m=2048 "
              f"simulated-time ratio {ratio:.2f}x")
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO_ROOT), help="output directory")
    parser.add_argument(
        "--files", nargs="+", metavar="BENCH_FILE", default=None,
        help="regenerate only these baseline files (default: all)",
    )
    parser.add_argument(
        "--names", nargs="+", metavar="NAME", default=None,
        help="re-run only these benchmarks and merge their entries into "
        "the committed baseline files (other entries are preserved)",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)

    if args.names:
        from benchmarks.perf.suite import BENCHMARKS

        unknown = sorted(set(args.names) - set(BENCHMARKS))
        if unknown:
            print(
                f"error: unknown benchmark name(s): {', '.join(unknown)}\n"
                f"known benchmarks: {', '.join(sorted(BENCHMARKS))}",
                file=sys.stderr,
            )
            return 2

    print("perf baseline run")
    by_file = collect(
        names=set(args.names) if args.names else None,
        files=set(args.files) if args.files else None,
    )

    for filename, entries in by_file.items():
        path = out / filename
        if args.names:
            # Partial re-baseline: merge the fresh entries into the
            # committed file, keeping everything else (entries not
            # re-run, and any derived meta — a partial run cannot
            # recompute cross-entry metrics).
            if path.exists():
                doc = json.loads(path.read_text())
            else:
                doc = {
                    "meta": {
                        "python": platform.python_version(),
                        "machine": platform.machine(),
                    },
                    "benchmarks": [],
                }
            fresh_names = {e["name"] for e in entries}
            doc["benchmarks"] = [
                e for e in doc["benchmarks"] if e["name"] not in fresh_names
            ] + entries
            path.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"merged {len(entries)} entries into {path}")
            continue
        meta = {
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        if filename == "BENCH_render.json":
            meta.update(_render_meta())
        elif filename == "BENCH_des.json":
            meta.update(_des_meta(entries))
        elif filename == "BENCH_parallel.json":
            meta.update(_parallel_meta(entries))
        doc = {"meta": meta, "benchmarks": entries}
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
