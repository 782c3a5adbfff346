"""Contiguous node partitions for the conservative-parallel DES backend.

The parallel backend (:mod:`repro.sim.parallel`) splits the simulated
torus into ``num_shards`` contiguous node blocks and runs one engine
per shard.  The shard count is a property of the *machine*, not of
the worker count: results are a deterministic function of
``(program, machine)``, and any number of OS workers executing the
fixed shard set produces bitwise-identical results.  Eight shards
divide evenly among 1/2/4/8 workers — the strong-scaling points
BENCH_parallel.json records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigError

#: The shard count — fixed so results do not depend on how many
#: workers happen to run them, and divisible by every worker count the
#: partition-invariance tests sweep.
DEFAULT_SHARDS = 8


@dataclass(frozen=True, eq=False)
class ShardLayout:
    """A contiguous split of ``num_nodes`` torus nodes into shards.

    Shard ``s`` owns the node interval ``[bounds[s], bounds[s + 1])``;
    ``node_shard[n]`` is the shard owning node ``n``.  Contiguity in
    node id means contiguity in the mapping's fastest-varying torus
    axis, so most traffic (nearest-neighbour exchange, direct-send to
    nearby compositors) stays shard-local.
    """

    num_nodes: int
    num_shards: int
    bounds: tuple[int, ...]
    node_shard: np.ndarray

    @classmethod
    def contiguous(cls, num_nodes: int, num_shards: int | None = None) -> "ShardLayout":
        if num_nodes < 1:
            raise ConfigError(f"need at least one node, got {num_nodes}")
        if num_shards is None:
            num_shards = min(DEFAULT_SHARDS, num_nodes)
        if not 1 <= num_shards <= num_nodes:
            raise ConfigError(
                f"shard count {num_shards} must be in [1, {num_nodes}] "
                f"for a {num_nodes}-node partition"
            )
        bounds = tuple(
            (s * num_nodes) // num_shards for s in range(num_shards + 1)
        )
        node_shard = np.empty(num_nodes, dtype=np.int64)
        for s in range(num_shards):
            node_shard[bounds[s] : bounds[s + 1]] = s
        return cls(num_nodes, num_shards, bounds, node_shard)

    def nodes_of(self, shard: int) -> range:
        """Node ids owned by ``shard``."""
        return range(self.bounds[shard], self.bounds[shard + 1])

    def shard_of_node(self, node: int) -> int:
        return int(self.node_shard[node])

    def workers_for(self, num_workers: int) -> tuple[tuple[int, ...], ...]:
        """Assign shards to workers in contiguous balanced groups.

        Worker ``w`` gets shards ``[w*S/N, (w+1)*S/N)`` — the grouping
        never changes which records exist or how they are merged, only
        which OS process computes them.
        """
        if num_workers < 1:
            raise ConfigError(f"need at least one worker, got {num_workers}")
        n = min(num_workers, self.num_shards)
        return tuple(
            tuple(range((w * self.num_shards) // n, ((w + 1) * self.num_shards) // n))
            for w in range(n)
        )
