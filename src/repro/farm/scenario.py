"""Traffic scenarios: the JSON spec behind ``python -m repro farm``.

A scenario is everything a farm run needs — the machine slice, the
scheduling and cache knobs, the backend mode, and the session mix —
in one declarative record::

    {
      "seed": 7,
      "mode": "model",
      "total_nodes": 40960,
      "slo_s": 120.0,
      "alloc_overhead_s": 2.0,
      "result_cache_entries": 256,
      "backfill": true,
      "coalesce": true,
      "edge": {"entries_per_region": 128, "ttl_s": 900.0},
      "admission": {"tiers": {"free": {"rate_hz": 0.5, "burst": 4}}},
      "autoscale": {"policy": "reactive", "min_nodes": 256,
                    "max_nodes": 8192, "interval_s": 30.0},
      "size_policy": {"min_nodes": 256, "max_nodes": 8192},
      "sessions": [
        {"name": "browse0", "kind": "browse", "arrival": "open",
         "requests": 40, "rate_hz": 0.03, "cores": 16384, "steps": 12},
        {"name": "flash0", "kind": "browse", "arrival": "flash",
         "requests": 48, "burst_s": 2.0, "start_s": 600.0, "steps": 1,
         "cores": 8192, "region": "eu", "tier": "free"},
        {"name": "orbit0", "kind": "orbit", "arrival": "closed",
         "requests": 30, "think_s": 5.0, "cores": 8192}
      ]
    }

Unknown keys and wrongly typed values are rejected with their key path
(a typoed knob should fail loudly, not silently run the default or die
mid-run).  :data:`BUILTIN_SCENARIOS` names the committed traffic —
``repro farm --scenario`` takes one of these names or a JSON path:
``default`` is the capacity study (≥200 requests, ≥4 sessions),
``flash`` the flash-crowd study (edge tier + admission + autoscaling
against diurnal base load), and ``selftest`` / ``edge-selftest`` /
``interactive-selftest`` are seconds-fast execute-mode miniatures that
also list the counters their traffic must move.  :func:`check` is what
"the books balance" means for any of them.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field
from typing import Callable

from repro.farm.admission import TierSpec, TokenBucketAdmission
from repro.farm.allocator import SizePolicy
from repro.farm.autoscale import ReactiveAutoscaler, StaticPool
from repro.farm.backends import BACKENDS, backend_for
from repro.farm.edge import EdgeConfig
from repro.farm.result import FarmResult
from repro.farm.service import RenderFarm
from repro.farm.workload import SessionSpec, Workload
from repro.fault.plan import FarmFaults
from repro.machine.specs import BGP_ALCF
from repro.obs.tracer import Tracer
from repro.utils.errors import ConfigError
from repro.utils.validation import check_spec_fields, from_spec


@dataclass(frozen=True)
class FarmScenario:
    """One runnable traffic scenario (validated, JSON round-trippable)."""

    sessions: tuple[SessionSpec, ...]
    seed: int = 1530
    mode: str = "model"  # 'model' (paper scale) or 'execute' (functional)
    total_nodes: int = BGP_ALCF.total_nodes
    slo_s: float = 120.0
    alloc_overhead_s: float = 0.0
    result_cache_entries: int = 256
    backfill: bool = True
    size_policy: SizePolicy = field(default_factory=SizePolicy)
    backend_options: dict = field(default_factory=dict)
    fault: FarmFaults | None = None
    coalesce: bool = True  # single-flight duplicate-render coalescing
    edge: EdgeConfig | None = None  # regional edge cache tier
    admission: dict | None = None  # validated token-bucket admission spec
    autoscale: dict | None = None  # validated autoscale policy spec

    def workload(self) -> Workload:
        return Workload(sessions=self.sessions, seed=self.seed)

    def build(self, tracer: Tracer | None = None) -> RenderFarm:
        return RenderFarm(
            self.workload(),
            backend_for(self.mode, **self.backend_options),
            total_nodes=self.total_nodes,
            size_policy=self.size_policy,
            result_cache_entries=self.result_cache_entries,
            backfill=self.backfill,
            alloc_overhead_s=self.alloc_overhead_s,
            slo_s=self.slo_s,
            tracer=tracer,
            faults=self.fault,
            coalesce=self.coalesce,
            edge=self.edge.build() if self.edge is not None else None,
            admission=_admission(self.admission) if self.admission is not None else None,
            autoscaler=_autoscaler(self.autoscale) if self.autoscale is not None else None,
        )

    def run(self, tracer: Tracer | None = None) -> FarmResult:
        return self.build(tracer).run()

    # -- JSON ---------------------------------------------------------

    @classmethod
    def from_dict(cls, spec: dict) -> "FarmScenario":
        spec = dict(check_spec_fields(spec, cls, path="scenario"))
        raw_sessions = spec.pop("sessions", None)
        if not raw_sessions:
            raise ConfigError("scenario needs a non-empty 'sessions' list")
        sessions = tuple(_session_from_dict(i, s) for i, s in enumerate(raw_sessions))
        # A null block is an absent one: the field's default stands.
        blocks = {"size_policy": SizePolicy, "fault": FarmFaults, "edge": EdgeConfig}
        for key, block in blocks.items():
            raw = spec.pop(key, None)
            if raw is not None:
                spec[key] = from_spec(block, raw, key)
        # Build the policies once here so a bad value fails at load.
        if spec.get("admission") is not None:
            _admission(spec["admission"])
        if spec.get("autoscale") is not None:
            _autoscaler(spec["autoscale"])
        options = spec.get("backend_options")
        if options is not None:
            constructor = BACKENDS.get(spec.get("mode", "model"))
            hints = typing.get_type_hints(constructor.__init__) if constructor else {}
            # ``parallel`` takes a live ParallelConfig, which JSON cannot spell.
            hints.pop("parallel", None)
            check_spec_fields(options, hints, path="backend_options")
            # Resolve the compositor now so a typoed name (or an error
            # budget on an exact one, directsend by default) fails at load.
            from repro.compositing.backends import get_backend

            backend = get_backend(options.get("compositor", "directsend"))
            budget = options.get("error_budget", 0.0)
            if budget < 0:
                raise ConfigError(f"backend_options.error_budget must be >= 0, got {budget}")
            if budget and not backend.supports_error_budget:
                raise ConfigError(
                    f"backend_options: compositor {backend.name!r} is exact "
                    f"and honors no error budget; use 'puzzlepiece'"
                )
        return cls(sessions=sessions, **spec)

    @classmethod
    def from_file(cls, path: str) -> "FarmScenario":
        try:
            with open(path) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load scenario {path!r}: {exc}") from exc
        return cls.from_dict(spec)


def _admission(spec: dict) -> TokenBucketAdmission:
    """The ``admission`` block: ``tiers`` maps names to :class:`TierSpec`
    fields, ``default`` covers every tier not named."""
    check_spec_fields(spec, {"tiers": dict, "default": dict | None}, path="admission")
    tiers = {
        name: from_spec(TierSpec, tier, f"admission.tiers.{name}")
        for name, tier in spec.get("tiers", {}).items()
    }
    default = spec.get("default")
    if default is not None:
        default = from_spec(TierSpec, default, "admission.default")
    if not tiers and default is None:
        raise ConfigError("admission limits nothing: give tiers and/or a default")
    return TokenBucketAdmission(tiers=tiers, default=default)


def _autoscaler(spec: dict) -> StaticPool | ReactiveAutoscaler:
    """The ``autoscale`` block: a ``policy`` name (default reactive) and
    that policy's fields."""
    if not isinstance(spec, dict):
        raise ConfigError(f"autoscale must be a JSON object, got {type(spec).__name__}")
    kwargs = dict(spec)
    policy = kwargs.pop("policy", "reactive")
    policies = {"static": StaticPool, "reactive": ReactiveAutoscaler}
    if not isinstance(policy, str) or policy not in policies:
        raise ConfigError(f"autoscale.policy must be 'static' or 'reactive', got {policy!r}")
    return from_spec(policies[policy], kwargs, "autoscale")


def _session_from_dict(index: int, spec: dict) -> SessionSpec:
    spec = dict(check_spec_fields(spec, SessionSpec, path=f"sessions[{index}]"))
    spec.setdefault("name", f"session{index}")
    if "variables" in spec:
        spec["variables"] = tuple(spec["variables"])
    return SessionSpec(**spec)


def default_scenario(
    seed: int = 1530,
    result_cache_entries: int = 256,
    backfill: bool = True,
    coalesce: bool = True,
) -> FarmScenario:
    """The committed capacity-study traffic: 240 requests, 6 sessions.

    A mixed tenant population on a two-rack (2048-node) slice of
    Intrepid: two open browse sessions revisiting the same 12 time
    steps (the cross-session cache traffic), a long closed orbit, a
    multivariate analyst, a big-partition batch sweep, and a small
    interactive tenant.  Partition policy clamps jobs to 256–2048
    nodes, so the batch tenant's full-machine jobs block the queue
    head and hand the scheduler real backfill opportunities when the
    result cache is off.
    """
    sessions = (
        SessionSpec(
            name="browse0", kind="browse", arrival="open", requests=60,
            rate_hz=0.030, cores=4096, steps=12,
        ),
        SessionSpec(
            name="browse1", kind="browse", arrival="open", requests=60,
            rate_hz=0.030, cores=4096, steps=12, start_s=120.0,
        ),
        SessionSpec(
            name="orbit0", kind="orbit", arrival="closed", requests=48,
            think_s=4.0, cores=8192, orbit_deg=15.0,
        ),
        SessionSpec(
            name="multivar0", kind="multivar", arrival="open", requests=36,
            rate_hz=0.020, cores=4096, steps=6, start_s=60.0,
        ),
        SessionSpec(
            name="batch0", kind="browse", arrival="closed", requests=24,
            think_s=0.0, cores=16384, steps=24, slo_s=600.0,
        ),
        SessionSpec(
            name="inter0", kind="orbit", arrival="open", requests=12,
            rate_hz=0.010, cores=1024, orbit_deg=30.0, slo_s=60.0,
        ),
    )
    return FarmScenario(
        sessions=sessions,
        seed=seed,
        mode="model",
        total_nodes=2048,
        slo_s=240.0,
        alloc_overhead_s=2.0,
        result_cache_entries=result_cache_entries,
        backfill=backfill,
        coalesce=coalesce,
        size_policy=SizePolicy(min_nodes=256, max_nodes=2048),
    )


def flash_scenario(
    seed: int = 1530,
    coalesce: bool = True,
    edge: bool = True,
    admission: bool = True,
    autoscale: bool = True,
) -> FarmScenario:
    """The flash-crowd capacity study: diurnal base load plus a spike.

    A two-rack (2048-node) slice serving 64-node partitions (so at most
    32 concurrent renders).  Traffic is a diurnal browse population in
    one region, a small closed interactive tenant in another, and — at
    t=600 s — a flash crowd: 48 arrivals inside a two
    second window, all asking for the *same frame* from the ``free``
    tier.  Each service-tier arm is independently switchable so the
    capacity study can difference them:

    * ``coalesce`` — single-flight; off, the crowd renders K times;
    * ``edge`` — regional caches; off, every repeat reaches the origin;
    * ``admission`` — the ``free`` tier is token-bucketed; off, the
      crowd's duplicates (if also uncoalesced) queue behind everyone;
    * ``autoscale`` — reactive pool in [256, 2048]; off, the service
      holds (and pays for) the full slice all day.
    """
    sessions = (
        SessionSpec(
            name="browse0", kind="browse", arrival="diurnal", requests=60,
            rate_hz=0.05, cores=256, steps=8, region="us",
            period_s=1200.0, diurnal_amp=0.8,
        ),
        # azimuth 45 keeps the crowd's frame off inter0's 30-degree
        # orbit grid: nobody else ever renders (or caches) it, so the
        # spike is absorbed by single-flight alone.
        SessionSpec(
            name="flash0", kind="browse", arrival="flash",
            requests=48, burst_s=2.0, start_s=600.0,
            cores=256, steps=1, azimuth_deg=45.0,
            region="eu", tier="free",
        ),
        SessionSpec(
            name="inter0", kind="orbit", arrival="closed", requests=16,
            think_s=20.0, cores=256, orbit_deg=30.0, region="us",
            tier="interactive", slo_s=60.0,
        ),
    )
    return FarmScenario(
        sessions=sessions,
        seed=seed,
        mode="model",
        total_nodes=2048,
        slo_s=120.0,
        alloc_overhead_s=2.0,
        result_cache_entries=256,
        coalesce=coalesce,
        edge=EdgeConfig(entries_per_region=64) if edge else None,
        admission=(
            {"tiers": {"free": {"rate_hz": 0.5, "burst": 4}}} if admission else None
        ),
        autoscale=(
            {"policy": "reactive", "min_nodes": 256, "max_nodes": 2048,
             "interval_s": 30.0}
            if autoscale
            else None
        ),
        size_policy=SizePolicy(min_nodes=64, max_nodes=64),
    )


def selftest_scenario(seed: int = 7) -> FarmScenario:
    """A seconds-fast functional-mode miniature for CI smoke."""
    sessions = (
        SessionSpec(
            name="browse0", kind="browse", arrival="open", requests=8,
            rate_hz=0.5, cores=64, steps=3, dataset="mini",
        ),
        SessionSpec(
            name="browse1", kind="browse", arrival="open", requests=8,
            rate_hz=0.5, cores=64, steps=3, dataset="mini", start_s=2.0,
        ),
        SessionSpec(
            name="orbit0", kind="orbit", arrival="closed", requests=6,
            think_s=0.5, cores=64, orbit_deg=60.0, dataset="mini",
        ),
        SessionSpec(
            name="multivar0", kind="multivar", arrival="closed", requests=6,
            think_s=0.2, cores=64, steps=2, dataset="mini",
        ),
    )
    return FarmScenario(
        sessions=sessions,
        seed=seed,
        mode="execute",
        total_nodes=64,
        slo_s=30.0,
        alloc_overhead_s=0.1,
        result_cache_entries=64,
        size_policy=SizePolicy(min_nodes=16, max_nodes=16),
    )


def interactive_selftest_scenario(seed: int = 13) -> FarmScenario:
    """A seconds-fast functional miniature of the progressive tier.

    Execute mode on a 64-node slice, two interactive viewers: a
    *fidgety* one whose exponential dwell usually moves the camera
    mid-ladder (cancelling the fine levels and revisiting earlier
    views, so truncated ladders' coarse levels get coarse-hit), and a
    *patient* one whose ladders run to completion (so a revisit is a
    full result-cache hit).  The functional ladder clock makes coarse
    levels artificially expensive (tiny reads pay the per-access
    latency floor), so this scenario pins *semantics* — cancellation,
    reclaimed node-seconds, level caching — never TTFP magnitudes;
    those are the model-mode bench's job.
    """
    sessions = (
        # 90-degree orbit: seq 0/4/8 revisit azimuth 30, seq 1/5 120, ...
        SessionSpec(
            name="fidget0", kind="interactive", arrival="closed", requests=9,
            think_s=0.2, cores=64, orbit_deg=90.0, dataset="mini",
            levels=3, dwell_s=60.0,
        ),
        # 120-degree orbit: seq 3 revisits seq 0's completed ladder.
        SessionSpec(
            name="patient0", kind="interactive", arrival="closed", requests=4,
            think_s=0.2, cores=64, orbit_deg=120.0, dataset="mini",
            levels=3, dwell_s=0.0, azimuth_deg=10.0, start_s=1.0,
        ),
    )
    return FarmScenario(
        sessions=sessions,
        seed=seed,
        mode="execute",
        total_nodes=64,
        slo_s=3600.0,
        alloc_overhead_s=0.1,
        result_cache_entries=64,
        size_policy=SizePolicy(min_nodes=16, max_nodes=16),
    )


def edge_selftest_scenario(seed: int = 11) -> FarmScenario:
    """A seconds-fast functional miniature of the whole service tier.

    Execute mode on a 64-node slice: a flash crowd from the token
    bucketed ``free`` tier (so coalescing *and* load shedding both
    fire), one browse population per region sharing frames (so origin
    hits fill a second region's edge and later requests hit it), and a
    reactive pool so scaling mechanics run under real renders.
    """
    sessions = (
        SessionSpec(
            name="flash0", kind="browse", arrival="flash", requests=12,
            burst_s=0.5, steps=4, azimuth_deg=90.0, cores=64,
            dataset="mini", region="us", tier="free",
        ),
        SessionSpec(
            name="browse0", kind="browse", arrival="open", requests=8,
            rate_hz=0.5, cores=64, steps=3, dataset="mini", region="us",
        ),
        SessionSpec(
            name="browse1", kind="browse", arrival="open", requests=8,
            rate_hz=0.5, cores=64, steps=3, dataset="mini", region="eu",
            start_s=6.0,
        ),
    )
    return FarmScenario(
        sessions=sessions,
        seed=seed,
        mode="execute",
        total_nodes=64,
        slo_s=30.0,
        alloc_overhead_s=0.1,
        result_cache_entries=64,
        coalesce=True,
        edge=EdgeConfig(entries_per_region=32),
        admission={"tiers": {"free": {"rate_hz": 0.5, "burst": 2}}},
        autoscale={"policy": "reactive", "min_nodes": 16, "max_nodes": 64,
                   "interval_s": 2.0},
        size_policy=SizePolicy(min_nodes=16, max_nodes=16),
    )


@dataclass(frozen=True)
class BuiltinScenario:
    """A named scenario, and — as data — the ``summary()`` counters its
    traffic is built to make non-zero (dotted paths; ``a|b`` needs
    either).  The studies list none: their numbers are the result."""

    build: Callable[[], FarmScenario]
    expects: tuple[str, ...] = ()


#: The one name table: ``repro farm --scenario``, ``repro chaos
#: --scenario`` and chaos specs all resolve names here.
BUILTIN_SCENARIOS: dict[str, BuiltinScenario] = {
    "default": BuiltinScenario(default_scenario),
    "flash": BuiltinScenario(flash_scenario),
    "selftest": BuiltinScenario(
        selftest_scenario, ("service.cache_hits|service.coalesced",)
    ),
    "edge-selftest": BuiltinScenario(
        edge_selftest_scenario,
        ("service.coalesced", "service.edge_hits", "rejected", "autoscale.scale_events"),
    ),
    "interactive-selftest": BuiltinScenario(
        interactive_selftest_scenario,
        (
            "progressive.cancelled", "progressive.cancelled_node_s",
            "progressive.coarse_hits", "service.cache_hits",
            "progressive.levels_published",
        ),
    ),
}


def check(result: FarmResult, scenario: FarmScenario, expects: tuple[str, ...] = ()) -> list[str]:
    """Everything wrong with a finished run, human-readable; empty when
    the books balance: every arrival accounted for, every identity of
    :meth:`FarmResult.accounting_failures`, every counter in ``expects``
    moved."""
    failures = []
    total = scenario.workload().total_requests
    if result.arrivals != total:
        failures.append(f"expected {total} arrivals accounted, got {result.arrivals}")
    failures.extend(result.accounting_failures())
    summary = result.summary() if expects else {}
    for counters in expects:
        if not any(_lookup(summary, path) for path in counters.split("|")):
            failures.append(f"the traffic is built to move {counters}; it stayed 0")
    return failures


def _lookup(summary: dict, path: str):
    """``summary["a"]["b"]`` for ``"a.b"``; ``None`` where a section is absent."""
    node = summary
    for key in path.split("."):
        node = node.get(key) if isinstance(node, dict) else None
    return node
