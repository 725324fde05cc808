"""Inter-microservice paths: the path-node DAG.

Paper SSIII-C, the three roles of a path node:

* **Traversal** — "Specify the microservice, the execution path within
  the microservice, and the order of traversing individual
  microservices ... Each path node can have multiple children, and
  after execution on the current path node is complete, uqSim makes a
  copy of the job for each child node" (fan-out).
* **Synchronization** — "before entering a new path node, a job must
  wait until execution in all parent nodes is complete" (fan-in).
* **Blocking** — "each path node has two operation fields, one upon
  entering the node and another upon leaving the node, to trigger
  blocking or unblocking events on a specific connection".

The structure is a DAG: fan-out gives a node several children, fan-in
gives a node several parents. ``same_instance_as`` pins a node to the
instance the request already visited at an earlier node — the way a
response is composed by the *same* NGINX/Thrift process that accepted
the request.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ..distributions import Distribution
from ..errors import TopologyError


class NodeOp:
    """A blocking/unblocking action attached to node entry or exit.

    ``connection_of`` names the path node whose *incoming* connection is
    targeted; ``None`` means the current node's own incoming connection.
    Unblocking matches the initiating request id, per the paper's
    job-id matching description.
    """

    BLOCK = "block"
    UNBLOCK = "unblock"
    _ACTIONS = (BLOCK, UNBLOCK)

    def __init__(self, action: str, connection_of: Optional[str] = None) -> None:
        if action not in self._ACTIONS:
            raise TopologyError(
                f"unknown op action {action!r}; expected one of {self._ACTIONS}"
            )
        self.action = action
        self.connection_of = connection_of

    @classmethod
    def block(cls, connection_of: Optional[str] = None) -> "NodeOp":
        return cls(cls.BLOCK, connection_of)

    @classmethod
    def unblock(cls, connection_of: Optional[str] = None) -> "NodeOp":
        return cls(cls.UNBLOCK, connection_of)

    def __repr__(self) -> str:
        target = self.connection_of or "<self>"
        return f"NodeOp({self.action}, conn_of={target})"


class PathNode:
    """One visit to a microservice along the request's journey."""

    def __init__(
        self,
        name: str,
        service: str,
        path_id: Optional[int] = None,
        path_name: Optional[str] = None,
        same_instance_as: Optional[str] = None,
        on_enter: Optional[NodeOp] = None,
        on_leave: Optional[NodeOp] = None,
        request_bytes: Union[float, Distribution, None] = None,
    ) -> None:
        """
        *service* is the tier (service name) to visit; *path_id* /
        *path_name* optionally pin the execution path inside it.
        *request_bytes* sets the message size carried into this node
        (float, a distribution, or ``None`` to inherit the request's
        size).
        """
        if not name:
            raise TopologyError("path node needs a non-empty name")
        if not service:
            raise TopologyError(f"path node {name!r} needs a service")
        self.name = name
        self.service = service
        self.path_id = path_id
        self.path_name = path_name
        self.same_instance_as = same_instance_as
        self.on_enter = on_enter
        self.on_leave = on_leave
        self.request_bytes = request_bytes

    def message_bytes(self, request_size: float, rng) -> float:
        """Resolve the message size carried into this node."""
        if self.request_bytes is None:
            return request_size
        if isinstance(self.request_bytes, Distribution):
            return self.request_bytes.sample(rng)
        return float(self.request_bytes)

    def __repr__(self) -> str:
        return f"<PathNode {self.name} -> {self.service}>"


class CompiledTree:
    """A validated tree's traversal tables, built once so a request's
    walk looks up what it needs instead of rebuilding it per visit.

    Kept on the :class:`PathTree`, never on its nodes: two trees may
    share a node object, or use distinct nodes of the same name, and
    each has its own edges.
    """

    __slots__ = ("roots", "children", "fan_in", "sinks")

    def __init__(self, tree: "PathTree") -> None:
        nodes = tree._nodes
        #: Entry nodes, in insertion order.
        self.roots = tuple(
            node for name, node in nodes.items() if not tree._parents[name]
        )
        #: Node name -> its children, in edge order.
        self.children: Dict[str, Tuple[PathNode, ...]] = {
            name: tuple(nodes[child] for child in kids)
            for name, kids in tree._children.items()
        }
        #: Node name -> parents to wait for, for the fan-in nodes only:
        #: every other node is entered on its one arrival.
        self.fan_in: Dict[str, int] = {
            name: len(parents)
            for name, parents in tree._parents.items() if len(parents) > 1
        }
        #: How many sinks a request waits for before it responds.
        self.sinks = sum(1 for kids in tree._children.values() if not kids)


class PathTree:
    """A named DAG of path nodes for one request type.

    Multiple trees (with selection probabilities) express control-flow
    variability across request types — see
    :class:`~repro.topology.dispatcher.Dispatcher`.
    """

    def __init__(
        self,
        name: str = "default",
        response_bytes: Union[float, Distribution, None] = None,
    ) -> None:
        """*response_bytes* sizes the final message back to the client
        (``None`` = inherit the request's payload size)."""
        self.name = name
        self.response_bytes = response_bytes
        self._nodes: Dict[str, PathNode] = {}
        self._children: Dict[str, List[str]] = {}
        self._parents: Dict[str, List[str]] = {}
        # Set by validate(); any edit drops it, so a tree changed after
        # registration is checked and compiled again before its next use.
        self._compiled: Optional[CompiledTree] = None

    def response_size(self, request_size: float, rng) -> float:
        """Resolve the size of the response message to the client."""
        if self.response_bytes is None:
            return request_size
        if isinstance(self.response_bytes, Distribution):
            return self.response_bytes.sample(rng)
        return float(self.response_bytes)

    # Construction -------------------------------------------------------

    def add_node(self, node: PathNode) -> PathNode:
        if node.name in self._nodes:
            raise TopologyError(f"duplicate path node {node.name!r}")
        self._nodes[node.name] = node
        self._children[node.name] = []
        self._parents[node.name] = []
        self._compiled = None
        return node

    def add_edge(self, parent: str, child: str) -> None:
        for name in (parent, child):
            if name not in self._nodes:
                raise TopologyError(f"edge references unknown node {name!r}")
        if child in self._children[parent]:
            raise TopologyError(f"duplicate edge {parent!r} -> {child!r}")
        self._children[parent].append(child)
        self._parents[child].append(parent)
        self._compiled = None

    def chain(self, *nodes: PathNode) -> "PathTree":
        """Convenience: add nodes connected in a linear sequence."""
        previous = None
        for node in nodes:
            self.add_node(node)
            if previous is not None:
                self.add_edge(previous.name, node.name)
            previous = node
        return self

    # Queries ------------------------------------------------------------

    def node(self, name: str) -> PathNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(
                f"unknown path node {name!r}; have {sorted(self._nodes)}"
            ) from None

    @property
    def nodes(self) -> List[PathNode]:
        return list(self._nodes.values())

    def children(self, name: str) -> List[PathNode]:
        return [self._nodes[c] for c in self._children[name]]

    def parents(self, name: str) -> List[PathNode]:
        return [self._nodes[p] for p in self._parents[name]]

    def fan_in(self, name: str) -> int:
        """Completions required before *name* may start (>= 1)."""
        return max(1, len(self._parents[name]))

    @property
    def roots(self) -> List[PathNode]:
        """Entry nodes (no parents) — where client requests land."""
        return [n for n in self._nodes.values() if not self._parents[n.name]]

    @property
    def sinks(self) -> List[PathNode]:
        """Terminal nodes; the request completes when all have run."""
        return [n for n in self._nodes.values() if not self._children[n.name]]

    def compile(self) -> CompiledTree:
        """The tree's traversal tables, validating and compiling it
        first if it changed since it was last validated."""
        compiled = self._compiled
        if compiled is None:
            self.validate()
            compiled = self._compiled
        return compiled

    def validate(self) -> None:
        """Check the DAG is non-empty, rooted, acyclic, and that
        ``same_instance_as`` names a proper ancestor and an op's
        ``connection_of`` names the node itself or an ancestor; then
        compile it (see :meth:`compile`)."""
        if not self._nodes:
            raise TopologyError(f"path tree {self.name!r} has no nodes")
        if not self.roots:
            raise TopologyError(f"path tree {self.name!r} has no root (cycle?)")
        # Kahn's algorithm for cycle detection.
        in_degree = {n: len(p) for n, p in self._parents.items()}
        frontier = [n for n, d in in_degree.items() if d == 0]
        visited = 0
        while frontier:
            name = frontier.pop()
            visited += 1
            for child in self._children[name]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    frontier.append(child)
        if visited != len(self._nodes):
            raise TopologyError(f"path tree {self.name!r} contains a cycle")
        # A node may name only nodes every request has visited before
        # it: its ancestors (and, for a connection, itself). A forward
        # or sibling reference would depend on traversal order.
        for node in self._nodes.values():
            targets = [op.connection_of for op in (node.on_enter, node.on_leave)
                       if op is not None and op.connection_of is not None]
            if node.same_instance_as is None and not targets:
                continue
            ancestors = self._ancestors(node.name)
            if node.same_instance_as is not None:
                if node.same_instance_as not in self._nodes:
                    raise TopologyError(
                        f"node {node.name!r}: same_instance_as references "
                        f"unknown node {node.same_instance_as!r}"
                    )
                if node.same_instance_as not in ancestors:
                    raise TopologyError(
                        f"node {node.name!r}: same_instance_as "
                        f"{node.same_instance_as!r} is not an ancestor; a "
                        f"node may share only an instance visited before it"
                    )
            for target in targets:
                if target not in self._nodes:
                    raise TopologyError(
                        f"node {node.name!r}: op references unknown "
                        f"node {target!r}"
                    )
                if target != node.name and target not in ancestors:
                    raise TopologyError(
                        f"node {node.name!r}: op targets the connection of "
                        f"{target!r}, which is neither this node nor an "
                        f"ancestor"
                    )
        self._compiled = CompiledTree(self)

    def _ancestors(self, name: str) -> Set[str]:
        """Every node with a path to *name*, *name* itself excluded."""
        seen: Set[str] = set()
        stack = list(self._parents[name])
        while stack:
            parent = stack.pop()
            if parent not in seen:
                seen.add(parent)
                stack.extend(self._parents[parent])
        return seen

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"<PathTree {self.name} nodes={len(self)}>"
