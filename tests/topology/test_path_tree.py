"""Tests for the path-node DAG."""

import pytest

from repro.errors import TopologyError
from repro.topology import NodeOp, PathNode, PathTree


def node(name, service="svc", **kwargs):
    return PathNode(name, service, **kwargs)


class TestConstruction:
    def test_chain_builder(self):
        tree = PathTree().chain(node("a"), node("b"), node("c"))
        assert [n.name for n in tree.roots] == ["a"]
        assert [n.name for n in tree.sinks] == ["c"]
        assert [n.name for n in tree.children("a")] == ["b"]
        assert [n.name for n in tree.parents("b")] == ["a"]

    def test_duplicate_node_rejected(self):
        tree = PathTree()
        tree.add_node(node("a"))
        with pytest.raises(TopologyError):
            tree.add_node(node("a"))

    def test_edge_to_unknown_node_rejected(self):
        tree = PathTree()
        tree.add_node(node("a"))
        with pytest.raises(TopologyError):
            tree.add_edge("a", "ghost")

    def test_duplicate_edge_rejected(self):
        tree = PathTree()
        tree.add_node(node("a"))
        tree.add_node(node("b"))
        tree.add_edge("a", "b")
        with pytest.raises(TopologyError):
            tree.add_edge("a", "b")

    def test_empty_node_name_rejected(self):
        with pytest.raises(TopologyError):
            PathNode("", "svc")

    def test_missing_service_rejected(self):
        with pytest.raises(TopologyError):
            PathNode("a", "")


class TestFanInOut:
    def make_fanout(self, leaves=3):
        tree = PathTree()
        tree.add_node(node("proxy"))
        for i in range(leaves):
            tree.add_node(node(f"leaf{i}", service="leaf"))
            tree.add_edge("proxy", f"leaf{i}")
        tree.add_node(node("join", same_instance_as="proxy"))
        for i in range(leaves):
            tree.add_edge(f"leaf{i}", "join")
        return tree

    def test_fan_in_counts_parents(self):
        tree = self.make_fanout(3)
        assert tree.fan_in("join") == 3
        assert tree.fan_in("leaf0") == 1
        assert tree.fan_in("proxy") == 1  # roots still need one entry

    def test_roots_and_sinks(self):
        tree = self.make_fanout(3)
        assert [n.name for n in tree.roots] == ["proxy"]
        assert [n.name for n in tree.sinks] == ["join"]

    def test_validate_accepts_dag(self):
        self.make_fanout(4).validate()

    def test_compiled_tables_match_the_tree(self):
        tree = self.make_fanout(3)
        compiled = tree.compile()
        assert compiled.roots == tuple(tree.roots)
        assert compiled.children["proxy"] == tuple(tree.children("proxy"))
        assert compiled.children["join"] == ()
        # Only fan-in nodes carry a count; the rest enter on arrival.
        assert compiled.fan_in == {"join": 3}
        assert compiled.sinks == len(tree.sinks) == 1
        assert tree.compile() is compiled  # compiled once

    def test_an_edit_recompiles_and_revalidates(self):
        tree = self.make_fanout(2)
        compiled = tree.compile()
        tree.add_node(node("audit"))
        tree.add_edge("proxy", "audit")
        recompiled = tree.compile()
        assert recompiled is not compiled
        assert [n.name for n in recompiled.children["proxy"]] == [
            "leaf0", "leaf1", "audit",
        ]
        assert recompiled.sinks == 2
        tree.add_edge("audit", "proxy")  # a cycle: compiling refuses it
        with pytest.raises(TopologyError, match="cycle|root"):
            tree.compile()


class TestValidation:
    def test_empty_tree_rejected(self):
        with pytest.raises(TopologyError):
            PathTree().validate()

    def test_cycle_rejected(self):
        tree = PathTree()
        tree.add_node(node("a"))
        tree.add_node(node("b"))
        tree.add_node(node("root"))
        tree.add_edge("root", "a")
        tree.add_edge("a", "b")
        tree.add_edge("b", "a")
        with pytest.raises(TopologyError):
            tree.validate()

    def test_unknown_affinity_rejected(self):
        tree = PathTree()
        tree.add_node(node("a", same_instance_as="ghost"))
        with pytest.raises(TopologyError):
            tree.validate()

    def test_unknown_op_target_rejected(self):
        tree = PathTree()
        tree.add_node(node("a", on_leave=NodeOp.unblock("ghost")))
        with pytest.raises(TopologyError):
            tree.validate()

    @staticmethod
    def fork(**refs):
        """root -> (left, right) -> join, with *refs* set on ``left``."""
        tree = PathTree()
        tree.add_node(node("root"))
        tree.add_node(node("left", **refs))
        tree.add_node(node("right"))
        tree.add_node(node("join"))
        for parent, child in (("root", "left"), ("root", "right"),
                              ("left", "join"), ("right", "join")):
            tree.add_edge(parent, child)
        return tree

    @pytest.mark.parametrize("target", ["join", "right", "left"],
                             ids=["forward", "sibling", "self"])
    def test_affinity_must_name_a_proper_ancestor(self, target):
        tree = self.fork(same_instance_as=target)
        with pytest.raises(TopologyError, match="not an ancestor"):
            tree.validate()

    @pytest.mark.parametrize("target", ["join", "right"],
                             ids=["forward", "sibling"])
    @pytest.mark.parametrize("hook", ["on_enter", "on_leave"])
    def test_op_target_must_be_self_or_ancestor(self, hook, target):
        tree = self.fork(**{hook: NodeOp.unblock(target)})
        with pytest.raises(TopologyError, match="nor an ancestor"):
            tree.validate()

    @pytest.mark.parametrize("target", ["root", "left"],
                             ids=["ancestor", "self"])
    def test_op_on_self_or_ancestor_accepted(self, target):
        self.fork(on_leave=NodeOp.unblock(target)).validate()

    def test_affinity_to_distant_ancestor_accepted(self):
        tree = self.fork()
        tree.add_node(node("resp", same_instance_as="root",
                           on_leave=NodeOp.unblock("root")))
        tree.add_edge("join", "resp")
        tree.validate()

    def test_unknown_node_lookup(self):
        with pytest.raises(TopologyError):
            PathTree().node("nope")


class TestNodeOp:
    def test_factories(self):
        assert NodeOp.block().action == NodeOp.BLOCK
        assert NodeOp.unblock("x").connection_of == "x"

    def test_unknown_action_rejected(self):
        with pytest.raises(TopologyError):
            NodeOp("explode")


class TestMessageBytes:
    def test_inherits_request_size(self):
        import numpy as np

        n = node("a")
        assert n.message_bytes(700.0, np.random.default_rng(0)) == 700.0

    def test_static_override(self):
        import numpy as np

        n = node("a", request_bytes=612)
        assert n.message_bytes(700.0, np.random.default_rng(0)) == 612.0

    def test_distribution_override(self):
        import numpy as np
        from repro.distributions import Deterministic

        n = node("a", request_bytes=Deterministic(128))
        assert n.message_bytes(700.0, np.random.default_rng(0)) == 128.0
