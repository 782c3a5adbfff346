"""Ablation: compositor image regions as 2D tiles vs scanline strips.

Square-ish tiles give the O(m * n^(1/3)) message count the paper cites;
full-width strips make every footprint overlap ~m * height-fraction
strips, inflating message counts and shrinking messages at scale.
"""

from benchmarks.conftest import write_result

from repro.analysis.reports import format_table
from repro.compositing.schedule import schedule_from_geometry
from repro.model.composite import CompositeTimeModel
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition

GRID = (1120, 1120, 1120)
IMAGE = 1600


def test_ablation_tile_shape(benchmark, results_dir):
    cam = Camera.looking_at_volume(GRID, width=IMAGE, height=IMAGE)
    model = CompositeTimeModel()

    def collect():
        out = []
        # m kept <= image height so full-width strips are realizable.
        for cores, m in ((4096, 512), (16384, 1024), (32768, 1024)):
            dec = BlockDecomposition(GRID, cores)
            tiles = schedule_from_geometry(dec, cam, m, strips=False, cache=False)
            strips = schedule_from_geometry(dec, cam, m, strips=True, cache=False)
            out.append((cores, m, tiles, strips, model.price(tiles), model.price(strips)))
        return out

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = format_table(
        ["cores", "m", "tile msgs", "strip msgs", "tile t(s)", "strip t(s)"],
        [
            [c, m, t.total_messages, s.total_messages, pt.seconds, ps.seconds]
            for c, m, t, s, pt, ps in rows
        ],
    )
    for _c, _m, tiles, strips, priced_t, priced_s in rows:
        assert strips.total_messages > 1.5 * tiles.total_messages
        assert strips.mean_message_bytes < tiles.mean_message_bytes
        assert priced_s.seconds >= priced_t.seconds

    write_result(
        results_dir,
        "ablation_tile_shape",
        "Ablation: 2D tiles vs scanline strips for compositor regions\n\n" + table,
    )
