"""Ablation: direct-send vs binary-swap compositing.

The paper uses direct-send; binary swap (Ma et al., its ref. [13]) is
the classic alternative.  Binary swap's messages shrink by half each of
its log2(p) synchronized rounds, so at very large p its final rounds
also enter the small-message regime — while improved direct-send keeps
m bounded and messages big.  (The follow-on Radix-k work unifies the
two; this bench shows why neither extreme wins everywhere.)
"""

from benchmarks.conftest import write_result

from repro.analysis.reports import format_table
from repro.compositing.policy import IDENTITY_POLICY, PAPER_POLICY
from repro.model.composite import radix_k_cost

CORES = (256, 1024, 4096, 16384, 32768)
IMAGE_BYTES = 1600 * 1600 * 16  # premultiplied RGBA float32


def test_ablation_binary_swap(benchmark, results_dir, fm_1120):
    def collect():
        out = []
        for cores in CORES:
            ds_orig = fm_1120.composite_stage(cores, IDENTITY_POLICY)
            ds_impr = fm_1120.composite_stage(cores, PAPER_POLICY)
            # Binary swap is radix-k with k = 2 in each of log2(p) rounds.
            bs = radix_k_cost((2,) * (cores.bit_length() - 1), IMAGE_BYTES)
            out.append((cores, ds_orig, ds_impr, bs))
        return out

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = format_table(
        ["cores", "direct-send m=n (s)", "improved m<=2K (s)", "binary swap (s)"],
        [[c, o.seconds, i.seconds, b.seconds] for c, o, i, b in rows],
    )

    by_cores = {c: (o, i, b) for c, o, i, b in rows}
    # At 32K, improved direct-send beats the original scheme decisively.
    o, i, b = by_cores[32768]
    assert i.seconds < o.seconds / 10
    # Binary swap also avoids the original scheme's collapse at 32K
    # (it has no m*n^(1/3) small-message storm)...
    assert b.seconds < o.seconds
    # ...but pays log2(p) synchronized rounds, so improved direct-send
    # stays competitive.
    assert i.seconds < 3 * b.seconds

    write_result(
        results_dir,
        "ablation_binary_swap",
        "Ablation: direct-send vs binary-swap compositing (1120^3, 1600^2)\n\n"
        + table,
    )
