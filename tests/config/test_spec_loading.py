"""Tests for service/machines/graph/path/client parsing and the full
SimulationSpec round trip."""

import json

import pytest

from repro.config import (
    ServiceTemplate,
    SimulationSpec,
    parse_machines,
    parse_tree,
    table2_payload,
)
from repro.errors import ConfigError
from repro.hardware import GHZ
from repro.service import EpollQueue, MultiThreadedModel, SocketQueue

from .conftest import CACHE_SERVICE, FRONTEND_SERVICE, MACHINES, PATHS


class TestServiceTemplate:
    def test_builds_stages_and_paths(self):
        template = ServiceTemplate(CACHE_SERVICE)
        stages = template.build_stages()
        assert len(stages) == 3
        assert isinstance(stages[0].queue, EpollQueue)
        assert isinstance(stages[1].queue, SocketQueue)
        selector = template.build_selector()
        assert len(selector.paths) == 2

    def test_instances_get_fresh_queues(self):
        template = ServiceTemplate(CACHE_SERVICE)
        a = template.build_stages()
        b = template.build_stages()
        assert a[0].queue is not b[0].queue

    def test_probabilities_must_cover_all_paths(self):
        bad = json.loads(json.dumps(CACHE_SERVICE))
        del bad["paths"][1]["probability"]
        with pytest.raises(ConfigError):
            ServiceTemplate(bad).build_selector()

    def test_stage_without_cost_rejected(self):
        bad = json.loads(json.dumps(FRONTEND_SERVICE))
        del bad["stages"][0]["cost"]
        with pytest.raises(ConfigError):
            ServiceTemplate(bad)

    def test_unknown_cost_key_rejected(self):
        bad = json.loads(json.dumps(FRONTEND_SERVICE))
        bad["stages"][0]["cost"]["per_cacheline"] = {
            "dist": "deterministic", "value_us": 1
        }
        with pytest.raises(ConfigError):
            ServiceTemplate(bad)

    def test_missing_service_name_rejected(self):
        with pytest.raises(ConfigError):
            ServiceTemplate({"stages": [], "paths": []})


class TestMachines:
    def test_parse_cluster(self):
        cluster = parse_machines(MACHINES)
        assert len(cluster) == 2
        server = cluster.machine("server0")
        assert server.num_cores == 16
        assert server.ladder.min == pytest.approx(1.2 * GHZ)
        assert server.ladder.max == pytest.approx(2.6 * GHZ)
        assert len(server.ladder) == 15

    def test_table2_payload_parses(self):
        cluster = parse_machines({"machines": [table2_payload()]})
        assert cluster.machine("server0").num_cores == 40

    def test_empty_machines_rejected(self):
        with pytest.raises(ConfigError):
            parse_machines({"machines": []})

    def test_bad_dvfs_rejected(self):
        with pytest.raises(ConfigError):
            parse_machines(
                {"machines": [{"name": "a", "cores": 1,
                               "dvfs": {"min_ghz": 2.0, "max_ghz": 1.0}}]}
            )


class TestPathParsing:
    def test_parse_tree_structure(self):
        tree = parse_tree(PATHS["trees"][0])
        assert len(tree) == 3
        assert tree.node("frontend").on_enter.action == "block"
        assert tree.node("frontend_resp").same_instance_as == "frontend"

    def test_invalid_edges_rejected(self):
        spec = json.loads(json.dumps(PATHS["trees"][0]))
        spec["edges"].append(["frontend"])
        with pytest.raises(ConfigError):
            parse_tree(spec)

    def test_forward_reference_rejected_via_validate(self):
        # The cache node may not name the response node that follows it.
        spec = json.loads(json.dumps(PATHS["trees"][0]))
        spec["nodes"][1]["on_leave"] = {"action": "unblock",
                                        "connection_of": "frontend_resp"}
        from repro.errors import TopologyError

        with pytest.raises(TopologyError, match="nor an ancestor"):
            parse_tree(spec)

    def test_cycle_rejected_via_validate(self):
        spec = json.loads(json.dumps(PATHS["trees"][0]))
        spec["edges"].append(["frontend_resp", "frontend"])
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            parse_tree(spec)


class TestSimulationSpec:
    def test_load_and_build(self, spec_dir):
        spec = SimulationSpec.load(spec_dir)
        assert sorted(spec.templates) == ["cache", "frontend"]
        world, client = spec.build(seed=3)
        assert client is not None
        assert world.deployment.netproc("server0") is not None
        instance = world.instance("frontend")
        assert isinstance(instance.model, MultiThreadedModel)

    def test_end_to_end_run(self, spec_dir):
        spec = SimulationSpec.load(spec_dir)
        world, client = spec.build(seed=3)
        client.start()
        world.sim.run()
        assert client.requests_completed == 50
        assert client.latencies.mean() < 5e-3
        # Both request types flowed.
        types = {r.request_type for r in client.completed_requests}
        assert types == {"read", "write"}

    def test_build_is_reproducible(self, spec_dir):
        spec = SimulationSpec.load(spec_dir)

        def run():
            world, client = spec.build(seed=9)
            client.start()
            world.sim.run()
            return client.latencies.samples()[1].tolist()

        assert run() == run()

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            SimulationSpec.load(tmp_path / "ghost")

    def test_missing_services_rejected(self, tmp_path):
        (tmp_path / "machines.json").write_text("{}")
        with pytest.raises(ConfigError):
            SimulationSpec.load(tmp_path)

    def test_unknown_service_in_graph_rejected(self, spec_dir):
        graph = json.loads((spec_dir / "graph.json").read_text())
        graph["instances"][0]["service"] = "ghost"
        (spec_dir / "graph.json").write_text(json.dumps(graph))
        with pytest.raises(ConfigError):
            SimulationSpec.load(spec_dir).build()

    def test_two_unnamed_trees_rejected(self, spec_dir):
        # A tree's name defaults to "default", and names must be unique.
        from repro.errors import TopologyError

        tree = json.loads(json.dumps(PATHS["trees"][0]))
        del tree["name"]
        paths = {"trees": [dict(tree, probability=0.5),
                           dict(tree, probability=0.5)]}
        (spec_dir / "path.json").write_text(json.dumps(paths))
        with pytest.raises(TopologyError, match="'default'.*unique name"):
            SimulationSpec.load(spec_dir).build()
