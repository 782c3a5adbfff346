"""Perf regression guard: fresh run vs the committed baselines.

Usage::

    PYTHONPATH=src python benchmarks/perf/check_regression.py
        [--tolerance 0.25] [--update] [--only NAME ...] [--list]
        [--profile]

Re-runs every ``guard: true`` benchmark and fails (exit 1) if any
kernel is more than ``tolerance`` (default 25%) slower than its
committed ``BENCH_*.json`` entry.  The guard always runs the *whole*
selected set before reporting: every regressed kernel (and every
kernel that errored) is listed in one run, not just the first.

Benchmarks that have no committed baseline yet — a newly added entry,
or a whole new ``BENCH_*.json`` file — are not an error: the fresh
entry is appended to its baseline file and reported with a
"new baseline recorded" line, so adding a benchmark and running the
guard is enough to seed its baseline.

``--update`` instead regenerates the baselines in full; with
``--only`` it re-baselines just the named kernels, leaving every other
committed entry untouched.  ``--only`` restricts the guard to the
named kernels — the CI ``des-scale-smoke`` / ``parallel-des-smoke``
jobs use it to run single benchmarks under their wall-clock budgets.  Names are validated against the full
registry; ``--list`` prints it (with each kernel's baseline file,
guard flag, and committed seconds) and exits.
``--profile`` runs each selected benchmark under :mod:`cProfile` and
prints the top cumulative-time functions per benchmark instead of
checking regressions (see DESIGN.md on the engine/kernel split).

Also exposed as ``python -m repro bench``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import traceback

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE_FILES = (
    "BENCH_render.json",
    "BENCH_pipeline.json",
    "BENCH_des.json",
    "BENCH_fault.json",
    "BENCH_parallel.json",
    "BENCH_farm.json",
    "BENCH_compositing.json",
    "BENCH_timeseries.json",
    "BENCH_progressive.json",
)


def load_baselines(root: pathlib.Path) -> tuple[dict[str, dict], list[str]]:
    """({benchmark name: committed entry}, [missing filenames]).

    A missing baseline file is not fatal: its benchmarks are treated
    as new entries and recorded on the next guard run.
    """
    entries: dict[str, dict] = {}
    missing: list[str] = []
    for filename in BASELINE_FILES:
        path = root / filename
        if not path.exists():
            missing.append(filename)
            continue
        doc = json.loads(path.read_text())
        for entry in doc["benchmarks"]:
            entries[entry["name"]] = entry
    return entries, missing


def record_new_baseline(root: pathlib.Path, filename: str, entry: dict) -> pathlib.Path:
    """Append ``entry`` to its baseline file, creating the file if new."""
    path = root / filename
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
    doc["benchmarks"] = [
        e for e in doc["benchmarks"] if e["name"] != entry["name"]
    ] + [entry]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def run_profiled(names: list[str], lines: int) -> int:
    """Run each benchmark under cProfile; print top-N by cumulative time."""
    import cProfile
    import io
    import pstats

    from benchmarks.perf.suite import BENCHMARKS

    for name in names:
        fn, _filename = BENCHMARKS[name]
        print(f"\n=== profile: {name} " + "=" * max(0, 50 - len(name)))
        prof = cProfile.Profile()
        try:
            prof.enable()
            entry = fn()
            prof.disable()
        except Exception:
            prof.disable()
            print(f"ERROR while profiling {name}:", file=sys.stderr)
            traceback.print_exc()
            continue
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.strip_dirs().sort_stats("cumulative").print_stats(lines)
        print(f"timed region: {entry['seconds']:.4f} s (median of repeats)")
        print(buf.getvalue().rstrip())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="regenerate the committed baselines instead of checking",
    )
    parser.add_argument(
        "--only", nargs="+", metavar="NAME", default=None,
        help="restrict the guard to these benchmark names",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the registered benchmarks (name, baseline file, "
        "guard flag, committed seconds) and exit",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile each benchmark and print top cumulative functions "
        "(skips the regression comparison)",
    )
    parser.add_argument(
        "--profile-lines", type=int, default=25, metavar="N",
        help="rows of the per-benchmark profile table (default 25)",
    )
    parser.add_argument("--root", default=str(REPO_ROOT), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root)

    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.perf.run_perf import main as regen
    from benchmarks.perf.suite import BENCHMARKS

    # ``--only`` names are validated against the *full* registry (not
    # just the guarded set): a typo should list every real benchmark,
    # and explicitly naming an unguarded kernel is a request to run it.
    if args.only:
        unknown = sorted(set(args.only) - set(BENCHMARKS))
        if unknown:
            print(
                f"error: unknown benchmark name(s): {', '.join(unknown)}\n"
                f"known benchmarks: {', '.join(sorted(BENCHMARKS))}",
                file=sys.stderr,
            )
            return 2

    if args.list:
        baselines, _missing = load_baselines(root)
        print(f"{'benchmark':<34} {'baseline file':<26} {'guard':>5} {'seconds':>10}")
        for name in sorted(BENCHMARKS):
            _fn, filename = BENCHMARKS[name]
            entry = baselines.get(name)
            guard = "yes" if (entry or {}).get("guard") else "no"
            secs = f"{entry['seconds']:.4f}" if entry else "(none)"
            print(f"{name:<34} {filename:<26} {guard:>5} {secs:>10}")
        return 0

    if args.update:
        argv = ["--out", str(root)]
        if args.only:
            argv.extend(["--names", *args.only])
        return regen(argv)

    baselines, missing_files = load_baselines(root)
    if not baselines and not missing_files:
        print("error: no baseline entries found", file=sys.stderr)
        return 2
    for filename in missing_files:
        print(f"note: {filename} missing — its benchmarks will be "
              f"recorded as new baselines")

    guarded = [n for n, e in baselines.items() if e.get("guard")]
    # Registry entries with no committed baseline at all are *new*:
    # run them too, so a freshly added benchmark seeds its baseline on
    # the first guard run instead of crashing it.
    new_names = [n for n in BENCHMARKS if n not in baselines]
    selected = guarded + new_names
    if args.only:
        only = set(args.only)
        guarded = [n for n in guarded if n in only]
        new_names = [n for n in new_names if n in only]
        # Names with a committed baseline that is not normally guarded
        # (guard: false entries): an explicit request runs
        # them and compares against their committed entry anyway.
        extra = [
            n for n in args.only
            if n in baselines and n not in guarded and n not in new_names
        ]
        guarded += extra
        selected = guarded + new_names

    if args.profile:
        print(f"profiling {len(selected)} kernels under cProfile")
        return run_profiled(selected, args.profile_lines)

    print(f"perf regression guard: {len(guarded)} kernels, "
          f"tolerance {args.tolerance:.0%}"
          + (f", {len(new_names)} new" if new_names else ""))

    # Run the whole selected set up front, one benchmark at a time; an
    # exception in one kernel is reported and the rest still run.
    fresh: dict[str, dict] = {}
    fresh_file: dict[str, str] = {}
    errors: list[tuple[str, str]] = []
    for name in selected:
        fn, filename = BENCHMARKS[name]
        print(f"  running {name} ...", flush=True)
        try:
            entry = fn()
        except Exception as exc:
            errors.append((name, f"{type(exc).__name__}: {exc}"))
            traceback.print_exc()
            continue
        print(f"    {entry['seconds']:.4f} s")
        fresh[name] = entry
        fresh_file[name] = filename

    failures = []
    print(f"\n{'kernel':<28} {'baseline':>10} {'fresh':>10} {'ratio':>7}")
    for name in guarded:
        entry = fresh.get(name)
        if entry is None:
            # Already counted in ``errors``; keep comparing the rest.
            print(f"{name:<28} {'—':>10} {'—':>10} {'—':>7}  ERROR")
            continue
        base_s = baselines[name]["seconds"]
        fresh_s = entry["seconds"]
        ratio = fresh_s / base_s if base_s else float("inf")
        flag = ""
        if ratio > 1.0 + args.tolerance:
            failures.append((name, ratio))
            flag = "  REGRESSION"
        extra = ""
        # Entries can carry an absolute self-check: a fresh-run overhead
        # fraction that must stay under the entry's own ceiling
        # regardless of which machine wrote the committed baseline.
        max_overhead = entry.get("max_overhead_frac")
        if max_overhead is not None:
            overhead = entry.get("overhead_frac", 0.0)
            extra = f"  overhead {overhead:+.1%} (max {max_overhead:.0%})"
            if overhead > max_overhead:
                failures.append((name, 1.0 + overhead))
                flag = "  OVERHEAD"
        print(f"{name:<28} {base_s:>9.4f}s {fresh_s:>9.4f}s {ratio:>6.2f}x{flag}{extra}")

    for name in new_names:
        entry = fresh.get(name)
        if entry is None:
            continue
        path = record_new_baseline(root, fresh_file[name], entry)
        print(f"{name:<28} {'(none)':>10} {entry['seconds']:>9.4f}s "
              f"{'new':>7}  new baseline recorded -> {path.name}")

    if errors:
        for name, msg in errors:
            print(f"\nERROR: {name} failed to run: {msg}", file=sys.stderr)
    if failures:
        worst = ", ".join(f"{n} ({r:.2f}x)" for n, r in failures)
        print(f"\nFAIL: kernel(s) slower than baseline + {args.tolerance:.0%}: {worst}")
    if failures or errors:
        return 1
    print("\nOK: no kernel regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
