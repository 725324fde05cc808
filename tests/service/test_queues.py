"""Tests for single/socket/epoll stage queues and blocking visibility."""

import pytest

from repro.errors import ConfigError
from repro.service import queues
from repro.service import (
    Connection,
    EpollQueue,
    Job,
    Request,
    SingleQueue,
    SocketQueue,
    make_queue,
)


def job_on(conn=None, size=0.0):
    return Job(Request(created_at=0.0), size_bytes=size, connection=conn)


class TestSingleQueue:
    def test_fifo_order(self):
        q = SingleQueue()
        jobs = [job_on() for _ in range(3)]
        for j in jobs:
            q.push(j)
        assert q.next_batch() == [jobs[0]]
        assert q.next_batch() == [jobs[1]]

    def test_batch_limit(self):
        q = SingleQueue(batch_limit=2)
        jobs = [job_on() for _ in range(3)]
        for j in jobs:
            q.push(j)
        assert q.next_batch() == jobs[:2]
        assert q.next_batch() == [jobs[2]]

    def test_empty_batch(self):
        assert SingleQueue().next_batch() == []

    def test_counts(self):
        q = SingleQueue()
        q.push(job_on())
        assert len(q) == 1
        assert q.has_ready()

    def test_invalid_limit(self):
        with pytest.raises(ConfigError):
            SingleQueue(batch_limit=0)


class TestSocketQueue:
    def test_batch_from_single_connection(self):
        q = SocketQueue(batch_limit=10)
        a, b = Connection("a"), Connection("b")
        ja = [job_on(a) for _ in range(2)]
        jb = [job_on(b) for _ in range(2)]
        for j in [ja[0], jb[0], ja[1], jb[1]]:
            q.push(j)
        batch = q.next_batch()
        conns = {j.connection for j in batch}
        assert len(conns) == 1  # one connection per read()

    def test_round_robin_across_connections(self):
        q = SocketQueue(batch_limit=10)
        a, b = Connection("a"), Connection("b")
        q.push(job_on(a))
        q.push(job_on(b))
        first = q.next_batch()[0].connection
        q.push(job_on(a))
        q.push(job_on(b))
        second = q.next_batch()[0].connection
        assert first is not second

    def test_batch_limit_respected(self):
        q = SocketQueue(batch_limit=2)
        a = Connection("a")
        for _ in range(5):
            q.push(job_on(a))
        assert len(q.next_batch()) == 2
        assert len(q) == 3

    def test_blocked_connection_is_invisible(self):
        q = SocketQueue()
        a = Connection("a")
        q.push(job_on(a))
        a.block(request_id=10**9)
        assert len(q) == 1
        assert not q.has_ready()
        assert q.next_batch() == []
        assert len(q) == 1  # still queued, just hidden
        a.unblock(request_id=10**9)
        assert len(q.next_batch()) == 1

    def test_jobs_without_connection_share_a_subqueue(self):
        q = SocketQueue(batch_limit=10)
        q.push(job_on())
        q.push(job_on())
        assert len(q.next_batch()) == 2


class TestEpollQueue:
    def test_batch_spans_all_active_connections(self):
        q = EpollQueue(per_connection_limit=16)
        conns = [Connection(str(i)) for i in range(3)]
        for c in conns:
            q.push(job_on(c))
            q.push(job_on(c))
        batch = q.next_batch()
        assert len(batch) == 6
        assert {j.connection for j in batch} == set(conns)

    def test_per_connection_limit(self):
        q = EpollQueue(per_connection_limit=1)
        a = Connection("a")
        for _ in range(3):
            q.push(job_on(a))
        assert len(q.next_batch()) == 1
        assert len(q) == 2

    def test_unlimited_per_connection(self):
        q = EpollQueue(per_connection_limit=None)
        a = Connection("a")
        for _ in range(5):
            q.push(job_on(a))
        assert len(q.next_batch()) == 5

    def test_blocked_connection_excluded_from_epoll(self):
        q = EpollQueue()
        a, b = Connection("a"), Connection("b")
        q.push(job_on(a))
        q.push(job_on(b))
        a.block(request_id=10**9)
        batch = q.next_batch()
        assert [j.connection for j in batch] == [b]

    def test_invalid_limit(self):
        with pytest.raises(ConfigError):
            EpollQueue(per_connection_limit=0)


@pytest.mark.parametrize("make, one_connection", [
    (SingleQueue, True),
    (SocketQueue, False),
    (EpollQueue, False),
], ids=["single", "socket", "epoll"])
def test_has_ready_stops_at_the_first_ready_job(
    monkeypatch, make, one_connection
):
    # The dispatch scan asks has_ready() of every stage on every pass;
    # it must stop at the first visible job, not count the backlog.
    calls = []

    def counting_is_blocked(job):
        calls.append(job)
        return False

    monkeypatch.setattr(queues, "_is_blocked", counting_is_blocked)
    q = make()
    shared = Connection("shared")
    for i in range(1000):
        q.push(job_on(shared if one_connection else Connection(str(i))))
    assert q.has_ready()
    assert len(calls) == 1


class TestMakeQueue:
    def test_listing1_epoll_parameter(self):
        # Listing 1: "queue_parameter": [null, N]
        q = make_queue("epoll", [None, 8])
        assert isinstance(q, EpollQueue)
        assert q.per_connection_limit == 8

    def test_socket_parameter(self):
        q = make_queue("socket", [4])
        assert isinstance(q, SocketQueue)
        assert q.batch_limit == 4

    def test_single_no_parameter(self):
        assert isinstance(make_queue("single", None), SingleQueue)

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError):
            make_queue("ring", None)
