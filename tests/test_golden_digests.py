"""Digests the network path may not move.

These values hash every metric, span and fault a run records (see
:mod:`repro.telemetry.digest`).  They are independent of ``PYTHONHASHSEED``;
a change that alters what a packet does, or what is recorded about it,
changes them.
"""

from pathlib import Path

import pytest

from repro.faults import FaultPlan, run_chaos_scenario
from repro.load import LoadSpec, RampSchedule
from repro.load.driver import run_load_scenario
from repro.telemetry.digest import deterministic_digest
from repro.telemetry.scenario import run_figure5_scenario

PLAN = Path(__file__).resolve().parent.parent / "examples" / "plan_basic.json"

FIGURE5 = {
    "flat": "7b59165d50679ac9cd3e8e89764f356eba7b527062115ef84c30119ade6df80d",
    "regex": "b5c7a5101bff85fc66663ed90a11cc04fa01d5753cd47e5b1e43c5bc3d643c64",
}
CHAOS_PLAN_BASIC = "e8fb6cc5d95e474dc4d6b0eba082a67ca8d80ebc489d41d896bb412d14a377fc"


@pytest.mark.parametrize("kernel", sorted(FIGURE5))
def test_figure5_digest(kernel):
    result = run_figure5_scenario(packets=40, seed=7, kernel=kernel)
    assert deterministic_digest(result.hub) == FIGURE5[kernel]


@pytest.mark.parametrize("kernel", ["flat", "regex"])
def test_chaos_plan_basic_digest(kernel):
    result = run_chaos_scenario(FaultPlan.load(PLAN), kernel=kernel)
    assert result.digest == CHAOS_PLAN_BASIC


LOAD_SMOKE = "5145377ddfa8b976924020b56d36b1d7d91b5d994a1e10227e189026c5ce0c49"
LOAD_ANOMALY = "6713be55d4cc76abffe43156a5fd2ebca780030b91a0c40f2bfb905c09424739"


def test_load_smoke_digest():
    """CI's ``load-smoke`` spec under the default autoscaler stack."""
    spec = LoadSpec(
        profile_mix="mixed", flows=2000, epochs=10, ramp=RampSchedule(kind="linear")
    )
    assert run_load_scenario(spec, autoscale=True).digest == LOAD_SMOKE


def test_load_anomaly_digest():
    spec = LoadSpec(profile_mix="mixed", flows=600, epochs=6)
    result = run_load_scenario(spec, autoscale=True, anomaly=True)
    assert result.digest == LOAD_ANOMALY
