"""Every subcommand's options, pinned: flag, dest, default, type, choices.

A refactor of ``repro.cli`` must leave this table true unedited, so a
flag that is lost, added, renamed or re-defaulted fails here.  Each row
is ``flag: (dest, default, type, choices, nargs)``.
"""

import argparse

from repro.cli import build_parser

FORMATS = ("netcdf", "raw", "h5lite")
COMPOSITORS = ("binaryswap", "dfb", "directsend", "puzzlepiece", "radixk", "serial")
IO_MODES = ("raw", "netcdf", "netcdf-tuned", "netcdf64", "h5lite")
DATASETS = ("1120", "2240", "4480")

PINNED = {
    'render': {
        '--grid': ('grid', 32, int, None, None),
        '--cores': ('cores', 16, int, None, None),
        '--image': ('image', 128, int, None, None),
        '--variable': ('variable', 'vx', None, None, None),
        '--format': ('format', 'netcdf', None, FORMATS, None),
        '--seed': ('seed', 1530, int, None, None),
        '--time': ('time', 0.8, float, None, None),
        '--azimuth': ('azimuth', 35.0, float, None, None),
        '--elevation': ('elevation', 20.0, float, None, None),
        '--step': ('step', 0.7, float, None, None),
        '--out': ('out', 'frame.ppm', None, None, None),
        '--workers': ('workers', 1, int, None, None),
        '--compositor': ('compositor', 'directsend', None, COMPOSITORS, None),
        '--error-budget': ('error_budget', 0.0, float, None, None),
    },
    'trace': {
        '--grid': ('grid', 24, int, None, None),
        '--cores': ('cores', 8, int, None, None),
        '--image': ('image', 64, int, None, None),
        '--seed': ('seed', 1530, int, None, None),
        '--step': ('step', 0.8, float, None, None),
        '--trace-out': ('trace_out', 'trace.json', None, None, None),
        '--report-out': ('report_out', 'trace.txt', None, None, None),
    },
    'timeseries': {
        '--steps': ('steps', 4, int, None, None),
        '--grid': ('grid', 16, int, None, None),
        '--cores': ('cores', 8, int, None, None),
        '--image': ('image', 48, int, None, None),
        '--variable': ('variable', 'vx', None, None, None),
        '--format': ('format', 'netcdf', None, FORMATS, None),
        '--seed': ('seed', 1530, int, None, None),
        '--step': ('step', 0.8, float, None, None),
        '--orbit-degrees': ('orbit_degrees', 15.0, float, None, None),
        '--prefetch-depth': ('prefetch_depth', 1, int, None, None),
        '--discipline': ('discipline', 'fifo', None, ('fifo', 'fair'), None),
        '--compositor': ('compositor', 'directsend', None, COMPOSITORS, None),
        '--workers': ('workers', 1, int, None, None),
        '--trace-out': ('trace_out', None, None, None, None),
        '--out': ('out', None, None, None, None),
        '--check': ('check', False, None, None, 0),
    },
    'progressive': {
        '--grid': ('grid', 12, int, None, None),
        '--cores': ('cores', 8, int, None, None),
        '--image': ('image', 24, int, None, None),
        '--levels': ('levels', 3, int, None, None),
        '--variable': ('variable', 'vx', None, None, None),
        '--seed': ('seed', 1530, int, None, None),
        '--step': ('step', 0.8, float, None, None),
        '--cancel-after': ('cancel_after', None, float, None, None),
        '--compositor': ('compositor', 'directsend', None, COMPOSITORS, None),
        '--workers': ('workers', 1, int, None, None),
        '--out': ('out', None, None, None, None),
        '--trace-out': ('trace_out', None, None, None, None),
        '--check': ('check', False, None, None, 0),
    },
    'model': {
        '--dataset': ('dataset', '1120', None, DATASETS, None),
        '--cores': ('cores', 16384, int, None, None),
        '--io-mode': ('io_mode', 'raw', None, IO_MODES, None),
        '--original-compositing': ('original_compositing', False, None, None, 0),
    },
    'insitu': {
        '--dataset': ('dataset', '1120', None, DATASETS, None),
        '--cores': ('cores', 16384, int, None, None),
        '--io-mode': ('io_mode', 'netcdf', None, IO_MODES, None),
        '--steps': ('steps', 100, int, None, None),
        '--render-every': ('render_every', 10, int, None, None),
        '--json': ('json', False, None, None, 0),
    },
    'scorecard': {
    },
    'inventory': {
    },
    'bench': {
        '--only': ('only', None, None, None, '+'),
        '--update': ('update', False, None, None, 0),
        '--list': ('list', False, None, None, 0),
        '--profile': ('profile', False, None, None, 0),
    },
    'farm': {
        '--scenario': ('scenario', 'default', None, None, None),
        '--json': ('json', False, None, None, 0),
        '--seed': ('seed', None, int, None, None),
        '--no-result-cache': ('no_result_cache', False, None, None, 0),
        '--no-backfill': ('no_backfill', False, None, None, 0),
        '--no-coalesce': ('no_coalesce', False, None, None, 0),
        '--trace-out': ('trace_out', None, None, None, None),
    },
    'chaos': {
        '--spec': ('spec', None, None, None, None),
        '--scenario': ('scenario', None, None, None, None),
        '--sweep': ('sweep', None, float, None, '+'),
        '--repair-s': ('repair_s', None, float, None, None),
        '--seed': ('seed', None, int, None, None),
        '--out': ('out', None, None, None, None),
        '--json': ('json', False, None, None, 0),
        '--trace-out': ('trace_out', None, None, None, None),
    },
}


def _options(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    return {
        action.option_strings[-1]: (
            action.dest,
            action.default,
            action.type,
            None if action.choices is None else tuple(action.choices),
            action.nargs,
        )
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }


def test_every_subcommand_option_is_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(PINNED)
    for name, subparser in sub.choices.items():
        assert _options(subparser) == PINNED[name], name
