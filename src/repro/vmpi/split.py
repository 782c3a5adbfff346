"""Sub-communicators: MPI_Comm_split for the simulated MPI.

``split(ctx, color, key)`` groups ranks by colour and returns a
:class:`SubContext` whose rank/size/communication verbs operate within
the group.  Group messages live in a tag namespace derived from the
split instance and colour, so concurrent groups — and the parent —
never cross-match.  Sub-contexts support the full verb set, including
collectives and further splits (each level adds its own namespace
offset).

This is how grouped algorithms (radix-k rounds, compositor-only
reductions) are written without manual rank translation.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.utils.errors import CommunicationError
from repro.vmpi import collectives
from repro.vmpi.comm import ANY_SOURCE, ANY_TAG, Request, Status

#: Tag space carved out for split groups, far above user tags and the
#: collective range used inside any one context.  Python tags are
#: arbitrary-precision ints, so the strides can be generous: user tags
#: and in-group collective tags (< 2^21) can never reach the next
#: colour's namespace (2^26 away) or the next split instance's (2^34).
SPLIT_TAG_BASE = 1 << 40
SPLIT_INSTANCE_STRIDE = 1 << 34
SPLIT_COLOR_STRIDE = 1 << 26


def split(ctx: Any, color: Any, key: int | None = None) -> Generator:
    """Collective: partition ranks by ``color``; returns this rank's group.

    Within a group, ranks order by ``(key, parent rank)`` (key defaults
    to the parent rank, matching MPI).  Every rank must participate.
    """
    entries = yield from ctx.allgather((color, ctx.rank if key is None else key, ctx.rank))
    colors = sorted({c for c, _k, _r in entries}, key=repr)
    my_color_index = colors.index(next(c for c, _k, r in entries if r == ctx.rank))
    members = [r for c, k, r in sorted(entries, key=lambda e: (e[1], e[2]))
               if c == entries[ctx.rank][0]]
    # A unique namespace per split instance and colour, agreed by all
    # ranks without extra traffic: the parent's collective counter has
    # the same value everywhere after the allgather above.
    namespace = SPLIT_TAG_BASE + (ctx._coll_seq % 1024) * SPLIT_INSTANCE_STRIDE
    namespace += my_color_index * SPLIT_COLOR_STRIDE
    return SubContext(ctx, members, namespace)


class SubContext:
    """A group view over a parent context (same board, translated ranks)."""

    def __init__(self, parent: Any, members: Iterable[int], tag_base: int):
        self.parent = parent
        self.members = list(members)
        if parent.rank not in self.members:
            raise CommunicationError("rank is not a member of its own split group")
        self.rank = self.members.index(parent.rank)
        self.size = len(self.members)
        self._tag_base = tag_base
        self._coll_seq = 0

    # -- translation -------------------------------------------------------

    def _to_parent(self, group_rank: int) -> int:
        if not (0 <= group_rank < self.size):
            raise CommunicationError(
                f"group rank {group_rank} out of range [0, {self.size})"
            )
        return self.members[group_rank]

    def _from_parent(self, parent_rank: int) -> int:
        try:
            return self.members.index(parent_rank)
        except ValueError:
            raise CommunicationError(
                f"message from rank {parent_rank}, which is outside this group"
            ) from None

    def _tag(self, tag: int) -> int:
        return self._tag_base + tag

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.parent.now

    def compute(self, seconds: float) -> Generator:
        return self.parent.compute(seconds)

    # -- point-to-point ------------------------------------------------------

    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        return self.parent.isend(data, self._to_parent(dest), self._tag(tag))

    def isend_many(self, dest_payloads, tag: int = 0) -> list[Request]:
        return self.parent.isend_many(
            [(self._to_parent(d), p) for d, p in dest_payloads], self._tag(tag)
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        psource = ANY_SOURCE if source == ANY_SOURCE else self._to_parent(source)
        ptag = ANY_TAG if tag == ANY_TAG else self._tag(tag)
        return self.parent.irecv(psource, ptag)

    def send(self, data: Any, dest: int, tag: int = 0) -> Generator:
        yield self.isend(data, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        payload, _status = yield self.irecv(source, tag)
        return payload

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        payload, status = yield self.irecv(source, tag)
        translated = Status(
            source=self._from_parent(status.source),
            tag=status.tag - self._tag_base,
            nbytes=status.nbytes,
        )
        return payload, translated

    def sendrecv(self, data: Any, dest: int, source: int = ANY_SOURCE, tag: int = 0) -> Generator:
        req = self.isend(data, dest, tag)
        payload, _status = yield self.irecv(source, tag)
        yield req
        return payload

    def wait(self, req: Request) -> Generator:
        return self.parent.wait(req)

    def waitall(self, reqs) -> Generator:
        return self.parent.waitall(reqs)

    # -- collectives (the shared algorithms, over this group) -----------------

    def barrier(self) -> Generator:
        return collectives.barrier(self)

    def bcast(self, data: Any, root: int = 0) -> Generator:
        return collectives.bcast(self, data, root)

    def reduce(self, value: Any, op: Any = "sum", root: int = 0) -> Generator:
        return collectives.reduce(self, value, op, root)

    def allreduce(self, value: Any, op: Any = "sum") -> Generator:
        return collectives.allreduce(self, value, op)

    def gather(self, value: Any, root: int = 0) -> Generator:
        return collectives.gather(self, value, root)

    def scatter(self, values: Any, root: int = 0) -> Generator:
        return collectives.scatter(self, values, root)

    def allgather(self, value: Any) -> Generator:
        return collectives.allgather(self, value)

    def alltoall(self, values: Any) -> Generator:
        return collectives.alltoall(self, values)

    def alltoallv(self, by_dest: dict[int, Any]) -> Generator:
        return collectives.alltoallv(self, by_dest)

    def reduce_scatter(self, values: Any, op: Any = "sum") -> Generator:
        return collectives.reduce_scatter(self, values, op)

    def scan(self, value: Any, op: Any = "sum") -> Generator:
        return collectives.scan(self, value, op)

    def split(self, color: Any, key: int | None = None) -> Generator:
        return split(self, color, key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SubContext {self.rank}/{self.size} of {self.parent!r}>"
