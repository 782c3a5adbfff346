"""Blue Gene/P interconnect models.

* :mod:`repro.network.topology` — the 3D torus (and sub-midplane mesh)
  with dimension-ordered routing: the hop counts the DES prices with,
  and a vectorized per-link load accumulator kept as a diagnostic (no
  price is derived from it).  The collective tree network is not
  modelled.
* :mod:`repro.network.costs` — message cost laws: the per-message wire
  time with its small-message efficiency falloff (Kumar & Heidelberger),
  and the empirical contention law fitted to the direct-send collapse
  at scale (Davis et al. hot spots; Hoisie et al. contention).
* :mod:`repro.network.desnet` — event-driven transport used by the
  simulated MPI: per-node injection/ejection serialization plus the
  cost laws, delivering real payloads between ranks.
"""

from repro.network.topology import TorusTopology
from repro.network.costs import LinkCostModel, ContentionLaw
from repro.network.desnet import DESNetwork
from repro.network.shardnet import ShardNetwork

__all__ = [
    "TorusTopology",
    "LinkCostModel",
    "ContentionLaw",
    "DESNetwork",
    "ShardNetwork",
]
