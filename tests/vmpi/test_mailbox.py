"""MessageBoard matching semantics, property-checked.

MPI ordering guarantee: messages between one (source, dest) pair with
matching tags are received in send order; wildcards match the earliest
arrival.  These properties underpin every collective.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.mapping import RankMapping
from repro.machine.partition import Partition
from repro.network.desnet import DESNetwork
from repro.network.topology import TorusTopology
from repro.sim.engine import Engine
from repro.utils.errors import CommunicationError
from repro.vmpi.comm import ANY_SOURCE, ANY_TAG, MessageBoard, Status, _Send


def make_board(nprocs=8):
    part = Partition(max(nprocs // 4, 1) * 2, processes_per_node=4)
    eng = Engine()
    net = DESNetwork(eng, TorusTopology(part.shape, torus=part.is_torus), RankMapping(part))
    return eng, MessageBoard(net, part.nprocs)


class TestMatchingSemantics:
    def test_fifo_per_pair_and_tag(self):
        eng, board = make_board()
        for i in range(5):
            board.post_send(0, 1, tag=7, payload=i)
        got = []
        for _ in range(5):
            req = board.post_recv(1, source=0, tag=7)
            req.future.add_done_callback(lambda v: got.append(v[0]))
        eng.run()
        assert got == [0, 1, 2, 3, 4]

    def test_wildcard_tag_takes_earliest_arrival(self):
        eng, board = make_board()
        board.post_send(0, 1, tag=5, payload="first")
        board.post_send(0, 1, tag=9, payload="second")
        eng.run()  # both delivered
        req = board.post_recv(1, source=0, tag=ANY_TAG)
        assert req.complete
        payload, status = req.future.value
        assert payload == "first"
        assert status.tag == 5

    def test_specific_tag_skips_nonmatching(self):
        eng, board = make_board()
        board.post_send(0, 1, tag=5, payload="a")
        board.post_send(0, 1, tag=9, payload="b")
        eng.run()
        req = board.post_recv(1, source=0, tag=9)
        payload, _ = req.future.value
        assert payload == "b"
        # The tag-5 message is still waiting.
        assert board.unreceived_count() == 1

    def test_pending_recv_matches_on_arrival(self):
        eng, board = make_board()
        req = board.post_recv(1, source=ANY_SOURCE, tag=3)
        assert not req.complete
        board.post_send(2, 1, tag=3, payload="late")
        eng.run()
        assert req.complete
        assert req.future.value[0] == "late"
        assert req.future.value[1].source == 2

    def test_pending_recvs_match_in_posted_order(self):
        eng, board = make_board()
        r1 = board.post_recv(1, source=ANY_SOURCE, tag=ANY_TAG)
        r2 = board.post_recv(1, source=ANY_SOURCE, tag=ANY_TAG)
        board.post_send(0, 1, tag=1, payload="x")
        eng.run()
        assert r1.complete and not r2.complete
        board.post_send(0, 1, tag=2, payload="y")
        eng.run()
        assert r2.complete

    def test_earlier_wildcard_tag_recv_beats_the_exact_tag_head(self):
        """Delivery hands a message to its tag deque's head only while
        no wildcard-tag receive is posted, and only if the head accepts
        its source; otherwise the earliest-posted match wins."""
        eng, board = make_board()
        wild = board.post_recv(1, source=ANY_SOURCE, tag=ANY_TAG)
        exact = board.post_recv(1, source=ANY_SOURCE, tag=4)
        board.post_send(0, 1, tag=4, payload="x")
        eng.run()
        assert wild.complete and not exact.complete
        from_2 = board.post_recv(1, source=2, tag=5)
        any_src = board.post_recv(1, source=ANY_SOURCE, tag=5)
        board.post_send(3, 1, tag=5, payload="y")
        eng.run()
        assert any_src.value[0] == "y" and not from_2.complete
        assert exact.value is None

    def test_negative_send_tag_rejected(self):
        _eng, board = make_board()
        with pytest.raises(CommunicationError, match="tag"):
            board.post_send(0, 1, tag=-1, payload=None)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # source
                st.integers(min_value=0, max_value=4),  # tag
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_every_send_eventually_matches_a_wildcard_recv(self, sends, seed):
        """N sends + N wildcard receives always pair up completely."""
        eng, board = make_board()
        for i, (src, tag) in enumerate(sends):
            board.post_send(src, 5, tag=tag, payload=i)
        reqs = [board.post_recv(5, ANY_SOURCE, ANY_TAG) for _ in sends]
        eng.run()
        got = sorted(r.future.value[0] for r in reqs)
        assert got == list(range(len(sends)))
        assert board.unreceived_count() == 0
        assert board.pending_recv_count() == 0


def _accepts(want_source, want_tag, source, tag):
    return want_source in (ANY_SOURCE, source) and want_tag in (ANY_TAG, tag)


class TestMatcherAgainstListScan:
    """The tag-indexed deques, their stamps and the delivery event's
    head-pop shortcut (``_Send.__call__``, in front of ``_deliver``'s
    general match) against the definition: a delivery goes to the
    earliest-posted receive that accepts it, a receive takes the
    earliest-arrived parked message it accepts."""

    RANK = 5

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),  # True: post a receive; False: a message lands
                st.sampled_from([ANY_SOURCE, 0, 1, 2]),
                st.sampled_from([ANY_TAG, 0, 1, 2]),
            ),
            max_size=40,
        )
    )
    def test_random_interleavings(self, ops):
        _eng, board = make_board()
        parked = []  # (message id, source, tag), arrival order
        waiting = []  # (receive id, source, tag), posting order
        expect = {}  # receive id -> message id
        reqs = []
        for n, (is_recv, source, tag) in enumerate(ops):
            if is_recv:
                reqs.append(board.post_recv(self.RANK, source, tag))
                rid = len(reqs) - 1
                hit = next((m for m in parked if _accepts(source, tag, m[1], m[2])), None)
                if hit is None:
                    waiting.append((rid, source, tag))
                else:
                    parked.remove(hit)
                    expect[rid] = hit[0]
            else:
                source, tag = max(source, 0), max(tag, 0)  # a message names both
                _Send(board, source, self.RANK, tag, n, 8 + n)()  # the delivery event
                hit = next((r for r in waiting if _accepts(r[1], r[2], source, tag)), None)
                if hit is None:
                    parked.append((n, source, tag))
                else:
                    waiting.remove(hit)
                    expect[hit[0]] = n
        got = {rid: req.value[0] for rid, req in enumerate(reqs) if req.complete}
        assert got == expect
        for rid, n in expect.items():
            _is_recv, source, tag = ops[n]
            assert reqs[rid].value[1] == Status(max(source, 0), max(tag, 0), 8 + n)
        assert board.unreceived_count() == len(parked)
        assert board.pending_recv_count() == len(waiting)
        assert board.unreceived_messages() == [(s, self.RANK, t) for _n, s, t in parked]


class TestOneRecordPerMessage:
    def test_request_is_its_own_future(self):
        eng, board = make_board()
        send = board.post_send(0, 1, tag=2, payload="x")
        recv = board.post_recv(1, source=0, tag=2)
        assert send.future is send and recv.future is recv
        assert (send.kind, recv.kind) == ("isend", "irecv")
        assert not send.complete and not recv.complete
        eng.run()
        assert send.complete and send.value is None
        assert recv.value == ("x", Status(source=0, tag=2, nbytes=17))

    @pytest.mark.parametrize("recv_first", [True, False])
    def test_matched_send_lets_go_of_the_body(self, recv_first):
        # The sender keeps its requests until waitall; they must not pin
        # every delivered payload until then.
        eng, board = make_board()
        body = np.arange(64)
        if recv_first:
            board.post_recv(1, source=0, tag=2)
        send = board.post_send(0, 1, tag=2, payload=body)
        eng.run()
        if not recv_first:
            assert send.payload is not None  # parked: the mailbox owns it
            board.post_recv(1, source=0, tag=2)
        assert send.payload is None

    def test_status_is_an_immutable_record(self):
        st_ = Status(source=3, tag=4, nbytes=5)
        assert repr(st_) == "Status(source=3, tag=4, nbytes=5)"
        with pytest.raises(AttributeError):
            st_.tag = 0
