"""Tests for the NetRS operator runtime bundle."""

import numpy as np
import pytest

from repro.core.operator_node import NetRSOperator
from repro.core.placement.problem import OperatorSpec
from repro.core.selector_node import NetRSSelector
from repro.errors import ConfigurationError
from repro.kvstore.hashing import ConsistentHashRing
from repro.network.accelerator import Accelerator
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.switch import ProgrammableSwitch
from repro.selection.c3 import C3Selector
from repro.sim import Environment

SERVERS = [f"server{i}" for i in range(4)]


@pytest.fixture
def parts():
    env = Environment()
    topo = build_fat_tree(4)
    network = Network(env, topo)
    accelerator = Accelerator(env, "acc")
    switch = ProgrammableSwitch(
        "agg0.0", network, operator_id=7, accelerator=accelerator
    )
    spec = OperatorSpec(
        operator_id=7, switch="agg0.0", tier=1, pod=0, capacity=1000.0
    )
    ring = ConsistentHashRing(SERVERS, replication_factor=3, virtual_nodes=4)
    selector = NetRSSelector(
        env,
        algorithm=C3Selector(
            concurrency_weight=1,
            prior_service_rate=100.0,
            rng=np.random.default_rng(0),
        ),
        ring=ring,
    )
    return env, spec, switch, accelerator, selector


class TestNetRSOperator:
    def test_construction_checks_wiring(self, parts):
        env, spec, switch, accelerator, _ = parts
        operator = NetRSOperator(spec, switch, accelerator)
        assert operator.operator_id == 7
        assert not operator.active

    def test_mismatched_switch_rejected(self, parts):
        env, spec, switch, accelerator, _ = parts
        bad_spec = OperatorSpec(
            operator_id=7, switch="agg0.1", tier=1, pod=0, capacity=1000.0
        )
        with pytest.raises(ConfigurationError):
            NetRSOperator(bad_spec, switch, accelerator)

    def test_mismatched_accelerator_rejected(self, parts):
        env, spec, switch, _, _ = parts
        other = Accelerator(env, "other")
        with pytest.raises(ConfigurationError):
            NetRSOperator(spec, switch, other)

    def test_activate_binds_selector(self, parts):
        env, spec, switch, accelerator, selector = parts
        operator = NetRSOperator(spec, switch, accelerator)
        operator.activate(selector, {7: "agg0.0"})
        assert operator.active
        assert switch.selector is selector
        assert operator.activations == 1

    def test_deactivate_unbinds(self, parts):
        env, spec, switch, accelerator, selector = parts
        operator = NetRSOperator(spec, switch, accelerator)
        operator.activate(selector, {7: "agg0.0"})
        operator.deactivate()
        assert not operator.active
        assert switch.selector is None

    def test_activation_resets_utilization_window(self, parts):
        env, spec, switch, accelerator, selector = parts
        accelerator.submit("p", work=lambda p, t: p)
        env.run(until=1e-3)
        operator = NetRSOperator(spec, switch, accelerator)
        operator.activate(selector, {7: "agg0.0"})
        assert operator.utilization() == 0.0
