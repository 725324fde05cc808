"""Bit-level pins of the BigHouse baseline (Fig 13's comparison curve).

Every :class:`BigHouseResult` field of four runs — one that converges
after more than its minimum instance count, one overloaded run that
never converges, a two-server run and a D/D/1 run that converges at
once — is pinned exactly (floats by ``float.hex``), as is the p99 that
:func:`bighouse_single_tier` reports for each Fig 13 panel at one load.
A refactor of the convergence loop or of the instance streams must
keep every one of these bits.
"""

import dataclasses

import pytest

from repro.apps import calibration as cal
from repro.apps import single_memcached, single_nginx
from repro.bighouse import BigHouseSimulator
from repro.distributions import Deterministic, Exponential
from repro.experiments.comparison import bighouse_single_tier

CASES = {
    "mm1_converged": lambda: BigHouseSimulator(
        Exponential(2e-3), Exponential(1e-3), servers=1,
        requests_per_instance=3_000, tolerance=0.03, seed=3,
    ),
    "overloaded_unconverged": lambda: BigHouseSimulator(
        Exponential(0.9e-3), Exponential(1e-3), servers=1,
        requests_per_instance=2_000, min_instances=2, max_instances=3,
        tolerance=0.0001, seed=4,
    ),
    "two_servers": lambda: BigHouseSimulator(
        Exponential(0.8e-3), Exponential(1e-3), servers=2,
        requests_per_instance=3_000, min_instances=3, max_instances=20,
        tolerance=0.03, seed=5,
    ),
    "dd1": lambda: BigHouseSimulator(
        Deterministic(1e-2), Deterministic(1e-3), servers=1,
        requests_per_instance=1_000, min_instances=2, max_instances=10,
        tolerance=0.01,
    ),
}

PINS = {
    "mm1_converged": dict(
        mean="0x1.0ed03cabb00ccp-9",
        p50="0x1.77b97ce523000p-10",
        p95="0x1.9758f98764871p-8",
        p99="0x1.257d288c6d18dp-7",
        samples=14400,
        instances=6,
        converged=True,
    ),
    "overloaded_unconverged": dict(
        mean="0x1.07a2af5ab46fep-3",
        p50="0x1.db3e40d28c3a4p-4",
        p95="0x1.c8d715beac381p-3",
        p99="0x1.0322da50cd385p-2",
        samples=4800,
        instances=3,
        converged=False,
    ),
    "two_servers": dict(
        mean="0x1.b9397c8c4718fp-10",
        p50="0x1.4bb06f8813400p-10",
        p95="0x1.374af27b5da99p-8",
        p99="0x1.ba19a98b2244ap-8",
        samples=24000,
        instances=10,
        converged=True,
    ),
    "dd1": dict(
        mean="0x1.0624dd2f1a9fbp-10",
        p50="0x1.0624dd2f1a800p-10",
        p95="0x1.0624dd2f1b000p-10",
        p99="0x1.0624dd2f1b000p-10",
        samples=1600,
        instances=2,
        converged=True,
    ),
}


def _exact(value):
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_fields_pinned(name):
    result = CASES[name]().run()
    assert {
        f.name: _exact(getattr(result, f.name))
        for f in dataclasses.fields(result)
    } == PINS[name]


def test_nginx_panel_point_pinned():
    p99 = bighouse_single_tier(
        single_nginx, 6000, 1, cal.FANOUT_PAGE_BYTES, seed=1,
        path_name="serve",
    )
    assert p99.hex() == "0x1.046b4237deb5fp-10"


def test_memcached_panel_point_pinned():
    p99 = bighouse_single_tier(
        single_memcached, 80_000, 4, cal.DEFAULT_VALUE_BYTES, seed=1,
        path_name="memcached_read",
    )
    assert p99.hex() == "0x1.2f752d145eb20p-15"
