"""Summaries, the printed report, and ``--compare``.

No ``repro`` import: reading and comparing reports must work on a
machine that only has the JSON files.
"""

from __future__ import annotations

import statistics

import spec

BOUNDS = {name: bound for name, _unit, _better, bound in spec.END_TO_END}
UNITS = {name: unit for name, unit, _better, _bound in spec.END_TO_END}


def summarize(samples: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one value per round.  No
    tail percentile: a run has fewer than 20 samples per metric, too
    few to claim one."""
    q1, _q2, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    )
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "unit": unit,
        "samples": samples,
    }


def _fmt(x: float) -> str:
    if isinstance(x, int) or (float(x).is_integer() and abs(x) >= 1000):
        return f"{int(x):,}"
    return f"{x:.4g}"


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_report(report: dict) -> str:
    host = report["host"]
    out = [
        f"e2e benchmark  seed={report['config']['seed']}  scale={report['config']['scale']}  "
        f"rounds={report['config']['rounds']}  reps={report['config']['reps']}",
        f"host: python {host['python']}, numpy {host['numpy']}, nproc {host['nproc']}; "
        "all end-to-end metrics are HOST seconds/bytes, simulated.* are exact counters",
    ]
    for i, r in enumerate(report["rounds"]):
        out.append(
            f"round {i}: host.calib_s={r['calib_s']:.4f} s  loadavg_1m={r['loadavg_1m']:.2f}"
        )
    for w in report["workloads"].values():
        pl = w.get("per_layer", {})
        if pl.get("model.anchor_log2_err_max"):  # the workload that owns the model probes
            out.append(
                "model vs the paper's 16 anchors: mean |log2 err| "
                f"{pl['model.anchor_log2_err_mean']:.3f}, max {pl['model.anchor_log2_err_max']:.3f}"
            )

    rows = [["workload", "metric", "median", "q1", "q3", "n", "unit", "bound"]]
    for name, w in report["workloads"].items():
        for metric, s in w["end_to_end"].items():
            rows.append([
                name, metric, _fmt(s["median"]), _fmt(s["q1"]), _fmt(s["q3"]),
                str(s["n"]), s["unit"], f"+{BOUNDS[metric]:.0%}",
            ])
        rows.append([
            name, "failed_ops", str(w["failed_ops"]), "", "", str(w["ops_attempted"]),
            "count", "must be 0",
        ])
    out += ["", "End to end (tracing off):", _table(rows)]

    for name, w in report["workloads"].items():
        for failure in w["failures"]:
            out.append(f"FAILED {name}: {failure}")
        wall = w["host_s_repetitions"]
        out.append(
            f"{name}: {len(wall)} repetitions, wall min {min(wall):.3f} / median "
            f"{statistics.median(wall):.3f} / max {max(wall):.3f} s; host.cpu_s per repetition: "
            + ", ".join(f"{c:.3f}" for c in w["cpu_s_repetitions"])
        )

    for name, w in report["workloads"].items():
        pl = w.get("per_layer")
        if not pl:
            continue
        traced = w["traced_s"]
        out += [
            "",
            f"Per layer, {name}: traced repetition {traced:.3f} s, untraced "
            f"{w['untraced_s']:.3f} s, trace.overhead_x {pl['trace.overhead_x']:.2f}",
        ]
        rows = [["layer", "self_s", "share", "calls"]]
        layers = sorted(spec.LAYERS, key=lambda l: -pl[f"{l}.self_s"])
        total = sum(pl[f"{l}.self_s"] for l in layers)
        for layer in layers:
            if pl[f"{layer}.calls"] or pl[f"{layer}.self_s"] > 0:
                rows.append([
                    layer, f"{pl[f'{layer}.self_s']:.4f}",
                    f"{pl[f'{layer}.self_s'] / traced:.1%}", _fmt(pl[f"{layer}.calls"]),
                ])
        rows.append(["(sum)", f"{total:.4f}", f"{total / traced:.1%}", ""])
        out.append(_table(rows))
        rows = [["span", "count", "total_s", "self_s"]]
        for span, s in sorted(w["by_span"].items(), key=lambda kv: -kv[1]["total_s"]):
            rows.append([span, str(s["count"]), f"{s['total_s']:.4f}", f"{s['self_s']:.4f}"])
        out.append(_table(rows))
        rows = [["probe / simulated", "value", "unit"]]
        for probe, unit, _better, owners in spec.PROBES:
            if name in owners:
                rows.append([probe, _fmt(pl[probe]), unit])
        for sim, unit in spec.SIMULATED:
            if sim in w["simulated"]:
                rows.append([sim, repr(w["simulated"][sim]), unit])
        out.append(_table(rows))
    return "\n".join(out)


# -- compare -----------------------------------------------------------


def _verdict(a: dict, b: dict, bound: float) -> str:
    """``same`` / ``worse`` / ``unresolved`` for a lower-is-better metric.

    Unresolved: either side's quartile spread is wider than the bound
    and the runs overlap, so the medians cannot settle the question.
    """
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    overlap = not (
        max(b["samples"]) < min(a["samples"]) or max(a["samples"]) < min(b["samples"])
    )
    if spread > bound and overlap:
        return "unresolved"
    return "worse" if b["median"] > a["median"] * (1 + bound) else "same"


def compare(a: dict, b: dict) -> tuple[str, bool]:
    """Table of B against base A; the bool is 'no row is worse or different'."""
    ok = True
    rows = [["workload", "metric", "A median", "A iqr", "B median", "B iqr",
             "B/A", "bound", "verdict"]]
    exact = [["workload", "counter", "A", "B", "verdict"]]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append([name, "(missing in B)", "", "", "", "", "", "", "worse"])
            ok = False
            continue
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"][metric]
            verdict = _verdict(sa, sb, BOUNDS[metric])
            ok &= verdict != "worse"
            rows.append([
                name, metric, _fmt(sa["median"]), _fmt(sa["q3"] - sa["q1"]),
                _fmt(sb["median"]), _fmt(sb["q3"] - sb["q1"]),
                f"{sb['median'] / sa['median']:.3f} of {_fmt(sa['median'])} {sa['unit']}",
                f"+{BOUNDS[metric]:.0%}", verdict,
            ])
        verdict = "same" if wb["failed_ops"] == 0 else "worse"
        ok &= verdict == "same"
        rows.append([name, "failed_ops", str(wa["failed_ops"]), "", str(wb["failed_ops"]),
                     "", "", "must be 0", verdict])
        counters = dict(wa["simulated"])
        counters.update(
            (k, v) for k, v in wa.get("per_layer", {}).items() if k.endswith(".calls")
        )
        others = {**wb.get("per_layer", {}), **wb["simulated"]}
        for key, va in counters.items():
            vb = others.get(key)
            if vb is None:
                continue  # one side ran --no-trace
            verdict = "equal" if va == vb else "DIFFERENT"
            ok &= va == vb
            if va or vb:
                exact.append([name, key, repr(va), repr(vb), verdict])
    text = "\n".join([
        "End-to-end metrics, B against base A (lower is better):", _table(rows), "",
        "Exact counters (simulated clock and call counts must not move):", _table(exact),
    ])
    return text, ok
