"""In-simulation fault plans on single measurements: machine faults on
a load-sweep point, and a Fig 14 cell whose fan-out never completes."""

import math

import pytest

from repro.apps import two_tier
from repro.errors import FaultError
from repro.experiments.loadsweep import measure_at_load
from repro.experiments.tail_at_scale import measure_tail_at_scale
from repro.faults import FaultPlan

POINT = dict(duration=0.1, warmup=0.02)


class TestLoadPointMachineFaults:
    def test_machine_fault_is_armed_and_audited(self):
        clean = measure_at_load(two_tier, 2000.0, audit=True, **POINT)
        plan = (FaultPlan().fail_machine(0.05, "server0")
                .recover_machine(0.08, "server0"))
        faulted = measure_at_load(
            two_tier, 2000.0, fault_plan=plan, audit=True, **POINT,
        )
        assert 0 < faulted.completed < clean.completed

    def test_link_fault_endpoints_are_validated(self):
        plan = FaultPlan().partition(0.05, "server0", "nowhere")
        with pytest.raises(FaultError, match="nowhere"):
            measure_at_load(two_tier, 2000.0, fault_plan=plan, **POINT)


class TestWedgedFig14Cell:
    def test_no_completions_reports_infinite_tail(self):
        # Every request fans out to every leaf, so a dead leaf machine
        # means no request ever completes.
        point = measure_tail_at_scale(
            5, 0.0, num_requests=20,
            fault_plan=FaultPlan().fail_machine(0.001, "leaf-node0"),
        )
        assert point.requests == 0
        assert math.isinf(point.p50) and math.isinf(point.p99)
