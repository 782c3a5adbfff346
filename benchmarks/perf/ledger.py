"""The perf ledger: one ``BENCH.json``, one writer, one guard rule.

Usage::

    PYTHONPATH=src python -m repro bench [--only NAME ...]
        [--update | --list | --profile]

``BENCH.json`` at the repo root is a JSON list of entries sorted by
name.  Each entry holds ``name``, ``guard``, ``config``; ``samples``
(timed runs, seconds) and ``seconds`` (their median); ``before_samples``
and ``before_seconds`` (the previous recording on the same host, or
null); ``host`` (python, machine, cpus); ``recorded`` (date); and
free-form ``facts``.

A guard run times every ``guard: true`` entry (or the ``--only``
names) and fails when a fresh median exceeds :data:`GUARD_FACTOR` times
the entry's slowest recorded sample, or when a fresh ``overhead_frac``
exceeds the entry's own ``max_overhead_frac`` fact.  It never writes:
a registered bench with no entry, or an entry with no registered bench,
is an error.  ``--update`` re-runs the same selection and merges the
fresh entries by name; an entry's previous samples become its before
only when the host matches.  ``--list`` prints the before/after table;
``--profile`` prints each bench's per-layer self-time split (the e2e
harness's roll-up) and its top cumulative functions.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import sys
import traceback
from statistics import median

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
LEDGER = REPO_ROOT / "BENCH.json"

#: A guarded entry fails when its fresh median exceeds this multiple of
#: its slowest recorded sample: wide enough for shared-host jitter, far
#: below the order-of-magnitude slowdowns the guard exists to catch.
GUARD_FACTOR = 2.5


def benches() -> dict:
    """The bench registry: name -> bench function."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.perf.suite import BENCHMARKS

    return BENCHMARKS


def host() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def load(path: pathlib.Path = LEDGER) -> dict[str, dict]:
    return {e["name"]: e for e in json.loads(path.read_text())}


def dump(entries: dict[str, dict], path: pathlib.Path = LEDGER) -> None:
    path.write_text(json.dumps([entries[n] for n in sorted(entries)], indent=2) + "\n")


def record(name: str, run: dict, previous: dict | None, where: dict, today: str) -> dict:
    """The ledger entry for a fresh ``run`` (a bench's return value):
    ``previous`` samples rotate to the before only on the same host."""
    samples = [float(f"{s:.4g}") for s in run["samples"]]
    before = previous["samples"] if previous and previous["host"] == where else None
    return {
        "name": name,
        "guard": run["guard"],
        "config": run["config"],
        "seconds": median(samples),
        "samples": samples,
        "before_seconds": median(before) if before else None,
        "before_samples": before,
        "host": where,
        "recorded": today,
        "facts": run["facts"],
    }


def verdict(entry: dict, run: dict) -> str | None:
    """Why a fresh ``run`` fails its ledger ``entry``, or None."""
    limit = GUARD_FACTOR * max(entry["samples"])
    fresh = median(run["samples"])
    if fresh > limit:
        return f"median {fresh:.4g} s > {GUARD_FACTOR} x slowest sample = {limit:.4g} s"
    ceiling = entry["facts"].get("max_overhead_frac")
    if ceiling is not None and run["facts"]["overhead_frac"] > ceiling:
        return f"overhead {run['facts']['overhead_frac']:+.1%} > max {ceiling:.0%}"
    return None


def mismatches(registry: dict, entries: dict) -> list[str]:
    return [
        f"{n}: registered bench has no ledger entry (record it with --update --only {n})"
        for n in sorted(set(registry) - set(entries))
    ] + [
        f"{n}: ledger entry has no registered bench"
        for n in sorted(set(entries) - set(registry))
    ]


def _run_all(registry: dict, names: list[str]) -> tuple[dict, list[str]]:
    """Run each bench once, in order; (name -> run, error lines)."""
    runs, errors = {}, []
    for name in names:
        print(f"  running {name} ...", flush=True)
        try:
            runs[name] = registry[name]()
        except Exception as exc:
            traceback.print_exc()
            errors.append(f"{name} failed to run: {type(exc).__name__}: {exc}")
            continue
        print(f"    {median(runs[name]['samples']):.4f} s")
    return runs, errors


def guard(registry: dict, entries: dict, names: list[str]) -> int:
    print(f"perf guard: {len(names)} benches, failing above "
          f"{GUARD_FACTOR}x the slowest recorded sample")
    runs, failures = _run_all(registry, names)
    print(f"\n{'bench':<34} {'slowest':>9} {'fresh':>9} {'ratio':>7}")
    for name in names:
        if name not in runs:
            continue
        slowest, fresh = max(entries[name]["samples"]), median(runs[name]["samples"])
        why = verdict(entries[name], runs[name])
        print(f"{name:<34} {slowest:>8.4f}s {fresh:>8.4f}s {fresh / slowest:>6.2f}x"
              + ("  FAIL" if why else ""))
        if why:
            failures.append(f"{name}: {why}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if failures:
        return 1
    print("\nOK: every bench within its guard")
    return 0


def update(registry: dict, entries: dict, names: list[str], path: pathlib.Path) -> int:
    runs, errors = _run_all(registry, names)
    where, today = host(), datetime.date.today().isoformat()
    for name, run in runs.items():
        entries[name] = record(name, run, entries.get(name), where, today)
    dump(entries, path)
    print(f"recorded {len(runs)} entries in {path.name}")
    for line in errors:
        print(f"ERROR: {line}", file=sys.stderr)
    return 1 if errors else 0


def table(entries: dict) -> int:
    print(f"{'bench':<34} {'guard':>5} {'before':>9}    {'median':>9} {'ratio':>7}  recorded")
    for name, e in sorted(entries.items()):
        before, secs = e["before_seconds"], e["seconds"]
        shown = f"{before:>9.4g}" if before else f"{'—':>9}"
        ratio = f"{secs / before:>6.2f}x" if before else f"{'—':>7}"
        print(f"{name:<34} {'yes' if e['guard'] else 'no':>5} {shown} -> "
              f"{secs:>9.4g} {ratio}  {e['recorded']}")
    return 0


def profile(registry: dict, names: list[str]) -> int:
    """Per-layer self time (the e2e harness's roll-up), then the top
    cumulative functions, for each bench."""
    import cProfile
    import pstats

    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
    from layers import rollup

    for name in names:
        print(f"\n=== profile: {name} " + "=" * max(0, 50 - len(name)))
        prof = cProfile.Profile()
        prof.enable()
        try:
            registry[name]()
        finally:
            prof.disable()
        self_s, calls = rollup(prof)
        total = sum(self_s.values()) or 1.0
        print(f"{'layer':<28} {'self s':>9} {'share':>7} {'calls':>10}")
        for layer, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"{layer:<28} {secs:>9.4f} {secs / total:>6.1%} {calls.get(layer, 0):>10}")
        pstats.Stats(prof).strip_dirs().sort_stats("cumulative").print_stats(25)
    return 0


def main(argv=None, registry: dict | None = None, path: pathlib.Path = LEDGER) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--only", nargs="+", metavar="NAME", default=None,
                        help="run these benches instead of every guarded one")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--update", action="store_true",
                      help="re-run and record the selected entries in BENCH.json")
    mode.add_argument("--list", action="store_true",
                      help="print the before/after table and exit")
    mode.add_argument("--profile", action="store_true",
                      help="profile the selected benches instead of guarding them")
    args = parser.parse_args(argv)

    registry = benches() if registry is None else registry
    unknown = sorted(set(args.only or ()) - set(registry))
    if unknown:
        print(f"error: unknown benchmark name(s): {', '.join(unknown)}\n"
              f"known benchmarks: {', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    entries = load(path)
    names = args.only or [n for n, e in sorted(entries.items()) if e["guard"]]
    if args.update:
        return update(registry, entries, names, path)
    errors = mismatches(registry, entries)
    if errors:
        print("error: BENCH.json and the bench registry disagree:\n  "
              + "\n  ".join(errors), file=sys.stderr)
        return 2
    if args.list:
        return table(entries)
    if args.profile:
        return profile(registry, names)
    return guard(registry, entries, names)


if __name__ == "__main__":
    sys.exit(main())
