"""Observability: simulated-time tracing, metrics, and exporters.

The pipeline's instrumentation layer.  A :class:`Tracer` rides through
the engine, the simulated MPI, and the compositing code, recording
spans and counters in *simulated* time; :mod:`repro.obs.export` turns
the record into a Chrome ``trace_event`` JSON or the paper's Table II
style per-rank stage report.
"""

from repro.obs.tracer import (
    CAT_ADMIT,
    CAT_COLL,
    CAT_COMM,
    CAT_COMPOSE,
    CAT_EDGE,
    CAT_FARM,
    CAT_FAULT,
    CAT_IO,
    CAT_PREFETCH,
    CAT_PROC,
    CAT_STAGE,
    STAGES,
    Span,
    Tracer,
)
from repro.obs.export import (
    chrome_trace,
    stage_report,
    write_chrome_trace,
)

__all__ = [
    "Span",
    "Tracer",
    "STAGES",
    "CAT_STAGE",
    "CAT_COMM",
    "CAT_COLL",
    "CAT_COMPOSE",
    "CAT_FARM",
    "CAT_EDGE",
    "CAT_ADMIT",
    "CAT_FAULT",
    "CAT_IO",
    "CAT_PREFETCH",
    "CAT_PROC",
    "chrome_trace",
    "write_chrome_trace",
    "stage_report",
]
