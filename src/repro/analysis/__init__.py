"""Analysis and reporting: the paper's tables, figures, and metrics
rendered for a terminal.

* :mod:`repro.analysis.asciiplot` — log-log line charts in text (the
  shape of Figs. 3-5 and 7 at terminal resolution).
* :mod:`repro.analysis.reports` — table formatters for Table I/II rows,
  the Fig. 6 time-distribution columns, and experiment summaries.
"""

from repro.analysis.asciiplot import ascii_loglog, ascii_bars
from repro.analysis.reports import (
    format_table,
    time_distribution_rows,
    fig3_rows,
    table2_rows,
    PUBLISHED_SCALES_TABLE1,
)
from repro.analysis.signature import ServerLoadProfile, server_load_profile
from repro.analysis.export import (
    estimate_to_dict,
    estimates_to_json,
    estimates_to_csv,
    sweep_cores,
)

__all__ = [
    "ascii_loglog",
    "ascii_bars",
    "format_table",
    "time_distribution_rows",
    "fig3_rows",
    "table2_rows",
    "PUBLISHED_SCALES_TABLE1",
    "ServerLoadProfile",
    "server_load_profile",
    "estimate_to_dict",
    "estimates_to_json",
    "estimates_to_csv",
    "sweep_cores",
]
