"""What a NetRS request costs the scheduler, as exact counts (no timing).

An RSNode's accelerator is a closed-form station: selection and the state
update run when the packet is admitted, so a crossing costs the flow tier one
event (the arrival) and the packet tier none of its own: the rebuilt request
is sent on from its admission, dated when the accelerator hands it back.
With no link fault scheduled the flow tier also does a ToR's work for it at
send time, and the packet tier the server ToR's: the source marker rides the
send.  A plain host-to-host send is one event however far it goes (express
delivery prices it by distance), so a CliRS request costs its sends plus its
arrival, service and timers; a NetRS request adds an event per switch it
*waits* at -- the RSNode's selection, which reads selector state, and the
client ToR's stamp while a replan can rewrite its rules mid-run (with none
armed the stamp rides the client's send).  Its response waits nowhere: the
RSNode's clone and the client ToR's count are notes dated ahead, read when
the clock gets there.  The measured per-scheme figures are in
docs/MESOSCALE.md; the ceilings here sit a few per cent above them, so a
reintroduced event per request fails.

Calls are budgeted beside events, counted by ``cProfile`` (exact, no timing):
a plain send is one frame of ``repro.network`` -- ``Host.send``, which prices
it, accounts it and schedules the delivery straight at the endpoint -- and a
whole run's calls per request sit under ceilings a few per cent above the
measured figures, so a reintroduced per-packet call fails as a reintroduced
event does.
"""

import cProfile
import dataclasses
import hashlib
import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.kvstore import hashing
from tests.mesoscale.test_flow import FAULT_SCHEDULE, _assert_identical


def test_flow_netrs_request_costs_seven_micro_events():
    """The ``flow-tor-faults`` benchmark shape: arrival, accelerator, server
    arrival and completion, clone into the accelerator, client delivery, the
    stale timeout -- 7.13 here with the retries (11.1 before the station)."""
    config = ExperimentConfig.small(
        scheme="netrs-tor",
        total_requests=4000,
        fidelity="flow",
        fault_schedule="server-down@0.02:server#0;server-up@0.06:server#0",
        request_timeout=0.02,
        max_retries=5,
    )
    result = run_experiment(config)
    assert result.retries > 0
    assert result.micro_events / config.total_requests < 7.5


def test_packet_netrs_request_costs_five_events():
    """``netrs-ilp`` on the packet tier: 5.02 events a request -- arrival, the
    RSNode, the server twice, the client (6.02 while the client ToR's stamp
    was an event, 9.02 while the hand-back, the clone and the monitor's count
    were, 14.02 before the station)."""
    config = ExperimentConfig.small(scheme="netrs-ilp", n_clients=32, total_requests=2000)
    result = run_experiment(config)
    assert result.selector_requests_handled == config.total_requests
    assert result.events_executed / config.total_requests < 5.5


def test_guarded_netrs_flow_still_matches_the_packet_tier():
    """Link faults keep one event per ToR crossing, where the link is checked;
    that path must stay what the packet tier does hop by hop."""
    config = ExperimentConfig.tiny(
        scheme="netrs-tor",
        seed=5,
        fault_schedule=FAULT_SCHEDULE,
        request_timeout=20e-3,
        max_retries=4,
    )
    packet = run_experiment(config)
    flow = run_experiment(config.replace(fidelity="flow"))
    _assert_identical(packet, flow)
    assert packet.packets_dropped > 0 and packet.timeouts > 0  # the links do fail
    unguarded = run_experiment(config.replace(fidelity="flow", fault_schedule=""))
    assert flow.micro_events / config.total_requests > 9  # one event per hand-off
    assert unguarded.micro_events / config.total_requests < 7.5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_guarded_netrs_flow_matches_when_no_link_event_fires(seed):
    """A link event after the run ends changes nothing: the guarded path
    prices every leg as the unguarded one and as the packet tier do -- the
    RSNode's ToR to a server in its own rack is one hop, counted once."""
    config = ExperimentConfig.tiny(
        scheme="netrs-tor",
        seed=seed,
        fault_schedule="link-degrade@5:client#0/tor(client#0)*2.0",
    )
    packet = run_experiment(config)
    flow = run_experiment(config.replace(fidelity="flow"))
    unguarded = run_experiment(config.replace(fidelity="flow", fault_schedule=""))
    assert packet.faults_injected == 0
    _assert_identical(packet, flow)
    _assert_identical(unguarded, flow)


#: The packet-tier benchmark cells that send nothing but plain host traffic
#: (``benchmarks/layered/workloads.py``): overrides of ``ExperimentConfig.small``,
#: the events-per-request ceiling (4.58-4.61 and 7.55-7.59 measured), and per
#: seed the fingerprint of the result at the commit before express delivery stopped
#: looking routes up (PR 19, 775b913) -- pricing a packet by distance must
#: change nothing a run reports.  ``python -m tests.mesoscale.test_event_budget``
#: prints fresh fingerprints after a deliberate behavioural change.
PLAIN_TRAFFIC_CELLS = {
    "pkt-clirs-r95": (
        dict(scheme="clirs-r95", total_requests=8000),
        4.8,
        {1: "0347b33b582f9b89", 7: "d4d0529f3c1ce8d6"},
    ),
    "pkt-quorum-churn": (
        dict(
            scheme="clirs",
            total_requests=4000,
            write_fraction=0.3,
            write_quorum=2,
            read_quorum=2,
            request_timeout=0.25,
            churn_schedule="node-leave@0.03:server#1;node-join@0.08:server#1",
        ),
        7.9,
        {1: "95fc4fc3a2f069ab", 7: "a4755d356d8b5dff"},
    ),
}

#: NetRS cells the same way (``pkt-netrs-ilp`` is the benchmark's): 5.02 and
#: 5.08 events a request measured.  The fingerprints are of the commit before
#: steered legs went by distance (3ca3a6c) and leave out ``events_executed``,
#: the one field that change and the ones since were meant to move.
NETRS_CELLS = {
    "pkt-netrs-ilp": (
        dict(scheme="netrs-ilp", n_clients=32, total_requests=6000),
        5.5,
        {1: "0658a16fd83d105d", 7: "c8de832a86005034"},
    ),
    "pkt-netrs-tor": (
        dict(scheme="netrs-tor", n_clients=32, total_requests=6000),
        5.5,
        {1: "eb79cabba7b0ab7a", 7: "4824f4ff7eaf5cd3"},
    ),
}


def _fingerprint(result, skip=("config", "wall_time")):
    """Every ``ExperimentResult`` field but the input and the wall clock."""
    sha = hashlib.sha256()
    for field in dataclasses.fields(result):
        if field.name in skip:
            continue
        value = getattr(result, field.name)
        if hasattr(value, "samples"):  # a LatencyRecorder
            value = list(value.samples)
        sha.update(f"{field.name}={value!r};".encode())
    return sha.hexdigest()[:16]


def _netrs_fingerprint(result):
    return _fingerprint(result, skip=("config", "wall_time", "events_executed"))


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("cell", sorted(PLAIN_TRAFFIC_CELLS))
def test_plain_traffic_costs_one_event_a_send_and_reports_the_same(cell, seed):
    overrides, ceiling, fingerprints = PLAIN_TRAFFIC_CELLS[cell]
    config = ExperimentConfig.small(seed=seed, **overrides)
    result = run_experiment(config)
    assert result.events_executed / config.total_requests < ceiling
    assert _fingerprint(result) == fingerprints[seed]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("cell", sorted(NETRS_CELLS))
def test_netrs_costs_an_event_per_acting_switch_and_reports_the_same(cell, seed):
    overrides, ceiling, fingerprints = NETRS_CELLS[cell]
    config = ExperimentConfig.small(seed=seed, **overrides)
    result = run_experiment(config)
    assert result.selector_requests_handled == config.total_requests
    assert result.events_executed / config.total_requests < ceiling
    assert _netrs_fingerprint(result) == fingerprints[seed]


def _profiled(config, scenario):
    """(result, cProfile entries) of one run on a scenario already built."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_experiment(config, scenario=scenario)
    finally:
        profiler.disable()
    return result, profiler.getstats()


def test_a_plain_send_is_one_call_into_the_network_package():
    """``Host.send`` and nothing under it (five frames before: ``send``,
    ``send_from_host``, ``host_distance``, ``_deliver_trunk``, ``receive``).
    Left over: a table row filled per destination, the settlement at the stop.
    ``packet.py`` builds messages, it moves none, and is not counted."""
    config = ExperimentConfig.small(scheme="clirs", total_requests=2000)
    scenario = build_scenario(config)
    _, stats = _profiled(config, scenario)
    package = os.sep + os.path.join("repro", "network") + os.sep
    frames = {}
    for entry in stats:
        code = entry.code
        if isinstance(code, str) or package not in code.co_filename:
            continue
        if not code.co_filename.endswith("packet.py"):
            frames[code.co_name] = frames.get(code.co_name, 0) + entry.callcount
    sends = sum(client.requests_sent for client in scenario.clients) + sum(
        server.completions for server in scenario.servers.values()
    )
    assert sends >= 2 * config.total_requests
    assert frames.pop("send") == sends
    assert frames.pop("plain_row") <= len(scenario.hosts)
    assert sum(frames.values()) <= 8, frames  # settle_trunks and its rows


#: Calls per request of a whole run on the benchmark's fixed input (seed 0),
#: set-up left out (an ILP solve's calls are scipy's business) and the
#: process-wide ring memo emptied first, so that the count is exact whatever
#: ran before: 91.94, 141.88 and 124.26 measured (95.30, 145.71 and 152.64
#: while a server built a second packet to reply in and the client ToR's stamp
#: was an event; 112.08, 181.96 and 162.63 while a plain send was five calls
#: and a second queue).  Ceilings sit under 2 % above: one more call per
#: packet is 2.3, 4.9 and 3.0 calls a request.
CALL_CEILINGS = {
    "pkt-clirs-r95": (PLAIN_TRAFFIC_CELLS["pkt-clirs-r95"][0], 93.5),
    "pkt-quorum-churn": (PLAIN_TRAFFIC_CELLS["pkt-quorum-churn"][0], 144.5),
    "pkt-netrs-ilp": (NETRS_CELLS["pkt-netrs-ilp"][0], 126.5),
}


@pytest.mark.parametrize("cell", sorted(CALL_CEILINGS))
def test_a_run_stays_under_its_call_budget(cell, monkeypatch):
    monkeypatch.setattr(hashing, "_RING_MEMO", {})
    overrides, ceiling = CALL_CEILINGS[cell]
    config = ExperimentConfig.small(seed=0, **overrides)
    _, stats = _profiled(config, build_scenario(config))
    calls = sum(entry.callcount for entry in stats)
    assert calls / config.total_requests < ceiling


def _print_fingerprints():  # pragma: no cover - manual re-recording helper
    for cells, fingerprint in (
        (PLAIN_TRAFFIC_CELLS, _fingerprint),
        (NETRS_CELLS, _netrs_fingerprint),
    ):
        for cell, (overrides, _, fingerprints) in sorted(cells.items()):
            for seed in sorted(fingerprints):
                result = run_experiment(ExperimentConfig.small(seed=seed, **overrides))
                print(cell, seed, fingerprint(result))


if __name__ == "__main__":  # pragma: no cover
    _print_fingerprints()
