"""Connections and connection pools.

Paper SSIII-C: the deployment file "specifies the size of the
connection pool of each microservice, if applicable", and path nodes
can "trigger blocking or unblocking events on a specific connection"
— the http/1.1 semantics where "only one outstanding request is
allowed per connection", realised by blocking the *receiving side* of
the incoming connection while a request is being served.

A blocked connection's jobs stay invisible to the receiving service's
epoll/socket queues (the kernel would not mark the socket readable
while the application is not reading it); unblocking re-exposes them
and kicks the service's dispatcher.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, List, Optional

from ..errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover
    pass


class Connection:
    """One (upstream -> downstream) transport connection."""

    __slots__ = (
        "conn_id",
        "name",
        "outstanding",
        "holder",
        "_waiters",
        "_on_unblock",
        "_send_seq",
        "_deliver_seq",
        "_parked",
    )

    _id_counter = itertools.count()

    def __init__(self, name: str = "") -> None:
        self.conn_id = next(Connection._id_counter)
        self.name = name or f"conn{self.conn_id}"
        self.outstanding = 0  # requests sent and not yet answered
        # The request id holding the receive-side block (read on every
        # queue visibility check, hence a plain slot).
        self.holder: Optional[int] = None
        self._waiters: List[int] = []  # later requests queued for the block
        self._on_unblock: List[Callable[[], None]] = []
        # TCP in-order delivery, per direction (keyed by receiver):
        # sequence numbers stamped at send, deliveries released in order.
        self._send_seq: dict = {}
        self._deliver_seq: dict = {}
        self._parked: dict = {}

    @property
    def blocked(self) -> bool:
        return self.holder is not None

    def on_unblock(self, callback: Callable[[], None]) -> None:
        """Subscribe to visibility changes (receiving services kick their
        dispatch loop from here)."""
        self._on_unblock.append(callback)

    def block(self, request_id: int) -> None:
        """Block the receiving side on behalf of *request_id*.

        http/1.1 allows one outstanding request per connection; later
        requests on the same connection queue behind the holder and
        acquire the block in FIFO order as earlier ones release it. uqSim
        "searches the list of job ids for the one matching the request
        that initiated the blocking behavior, in order to unblock the
        connection upon completion of the current request" — the holder
        id plays that role here.
        """
        if self.holder == request_id or request_id in self._waiters:
            raise TopologyError(
                f"{self.name}: request {request_id} blocked twice"
            )
        if self.holder is None:
            self.holder = request_id
        else:
            self._waiters.append(request_id)

    def unblock(self, request_id: int) -> None:
        """Release the block held by *request_id* (no-op otherwise)."""
        if self.holder != request_id:
            return  # a different in-flight request holds the block
        self.holder = self._waiters.pop(0) if self._waiters else None
        # Visibility changed either way: the next holder's job (or, with
        # no waiters, every queued job) becomes eligible.
        for callback in list(self._on_unblock):
            callback()

    def waiting(self, request_id: int) -> bool:
        """True if *request_id* is queued behind the current holder."""
        return request_id in self._waiters

    def abandon(self, request_id: int) -> None:
        """Withdraw *request_id* from the block entirely (cancellation).

        Unlike :meth:`unblock`, this also removes the request from the
        waiter queue, so a cancelled request can never acquire (and then
        leak) the block later. Releasing the holder passes the block on
        exactly as :meth:`unblock` does.
        """
        if request_id in self._waiters:
            self._waiters.remove(request_id)
            return
        self.unblock(request_id)

    # In-order delivery ------------------------------------------------

    def next_seq(self, direction: str) -> int:
        """Stamp an outgoing message towards *direction* (receiver name).

        TCP delivers each direction of a connection in send order; the
        simulator's network may complete hops out of order, so messages
        carry a sequence number and are released by
        :meth:`deliver_in_order`. Without this, a later request could be
        processed (and block the connection) before an earlier one
        arrives — an ordering real transports make impossible.
        """
        seq = self._send_seq.get(direction, 0) + 1
        self._send_seq[direction] = seq
        return seq

    def deliver_in_order(
        self, direction: str, seq: int, deliver: Callable[..., None], *args
    ) -> None:
        """Run ``deliver(*args)`` once every earlier message in this
        direction has been delivered (parking it until then)."""
        expected = self._deliver_seq.get(direction, 0) + 1
        if seq != expected:
            self._parked.setdefault(direction, {})[seq] = (deliver, args)
            return
        self._deliver_seq[direction] = seq
        deliver(*args)
        parked = self._parked.get(direction)
        while parked:
            nxt = self._deliver_seq[direction] + 1
            release = parked.pop(nxt, None)
            if release is None:
                break
            self._deliver_seq[direction] = nxt
            deliver, args = release
            deliver(*args)

    def __repr__(self) -> str:
        state = (
            f"blocked(by={self.holder}, +{len(self._waiters)} waiting)"
            if self.blocked
            else "open"
        )
        return f"<Connection {self.name} {state} outstanding={self.outstanding}>"


class ConnectionPool:
    """A fixed-size pool of connections from one upstream to one
    downstream instance.

    ``checkout`` picks the connection for the next request. Round-robin
    mirrors how wrk2 and RPC client pools spread requests across their
    connections; ``least_outstanding`` is available for pools fronting
    blocking protocols where picking an idle connection matters.
    """

    POLICIES = ("round_robin", "least_outstanding")

    def __init__(
        self,
        name: str,
        size: int,
        policy: str = "round_robin",
    ) -> None:
        if size < 1:
            raise TopologyError(f"connection pool {name!r} needs size >= 1")
        if policy not in self.POLICIES:
            raise TopologyError(
                f"unknown pool policy {policy!r}; expected one of {self.POLICIES}"
            )
        self.name = name
        self.policy = policy
        self.connections = [Connection(f"{name}#{i}") for i in range(size)]
        self._next = 0

    def __len__(self) -> int:
        return len(self.connections)

    def checkout(self) -> Connection:
        """Pick the connection to carry the next request."""
        if self.policy == "round_robin":
            conn = self.connections[self._next]
            self._next = (self._next + 1) % len(self.connections)
            return conn
        # least_outstanding: fall back to pool order on ties for
        # determinism.
        return min(self.connections, key=lambda c: (c.outstanding, c.conn_id))

    def __repr__(self) -> str:
        return f"<ConnectionPool {self.name} size={len(self)} {self.policy}>"
