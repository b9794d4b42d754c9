"""Tests for the TrafficProfile workload binding."""

import pytest

from repro import scenarios
from repro.topology import WorldBuilder
from repro.workload import TraceConfig, TrafficProfile


def small_profile(**overrides):
    defaults = dict(
        trace=TraceConfig(hosts=16, duration=120.0, peak_per_host=0.1),
        clients=3,
        servers=2,
        max_flows=25,
        window=1.0,
    )
    defaults.update(overrides)
    return TrafficProfile(**defaults)


class TestDrive:
    def test_every_offered_flow_opens_and_delivers(self):
        report = small_profile().drive(scenarios.build("fig1", seed=1))
        assert report.flows_offered > 0
        assert report.sessions_opened == report.flows_offered
        assert report.payloads_delivered == report.flows_offered

    def test_responses_come_back(self):
        report = small_profile().drive(scenarios.build("fig1", seed=2))
        assert report.responses_received >= report.flows_offered

    def test_silent_servers_when_respond_off(self):
        report = small_profile(respond=False).drive(scenarios.build("fig1", seed=3))
        assert report.payloads_delivered == report.flows_offered
        assert report.responses_received == 0

    def test_works_across_arbitrary_topologies(self):
        report = small_profile().drive(scenarios.build("chain:3", seed=4))
        assert report.payloads_delivered == report.flows_offered
        assert report.sim_time <= 1.0 + 0.5  # window + in-flight tail

    def test_endpoint_placement_defaults_first_and_last_as(self):
        world = scenarios.build("chain:3", seed=5)
        small_profile().drive(world)
        assert world.host("traffic-c0").assembly.aid == 100
        assert world.host("traffic-s0").assembly.aid == 300

    def test_explicit_placement(self):
        world = scenarios.build("star:2", seed=6)
        report = small_profile(
            client_at=["leaf1"], server_at=["leaf2"], clients=2, servers=1
        ).drive(world)
        assert report.payloads_delivered == report.flows_offered
        assert world.host("traffic-c1").assembly is world.asys("leaf1")
        assert world.host("traffic-s0").assembly is world.asys("leaf2")

    def test_bare_string_and_aid_refs_accepted(self):
        # A bare multi-letter name must not be iterated char by char.
        world = scenarios.build("star:2", seed=14)
        report = small_profile(
            client_at="leaf1", server_at=world.asys("hub"), clients=2, servers=1
        ).drive(world)
        assert report.payloads_delivered == report.flows_offered
        assert world.host("traffic-c0").assembly is world.asys("leaf1")
        assert world.host("traffic-s0").assembly is world.asys("hub")

    def test_load_spread_over_servers(self):
        report = small_profile(servers=2).drive(scenarios.build("fig1", seed=7))
        assert set(report.by_server) == {"traffic-s0", "traffic-s1"}
        assert all(count > 0 for count in report.by_server.values())

    def test_deterministic_for_equal_seeds(self):
        one = small_profile().drive(scenarios.build("fig1", seed=8))
        two = small_profile().drive(scenarios.build("fig1", seed=8))
        assert one == two

    def test_max_flows_caps_the_trace(self):
        report = small_profile(max_flows=5).drive(scenarios.build("fig1", seed=9))
        assert report.flows_offered == 5

    def test_same_world_can_be_driven_twice(self):
        world = scenarios.build("fig1", seed=11)
        first = small_profile().drive(world)
        second = small_profile().drive(world)
        # Second run auto-bumps the prefix: fresh endpoints, same traffic.
        assert set(second.by_server) == {"traffic2-s0", "traffic2-s1"}
        assert second.flows_offered == first.flows_offered
        assert second.payloads_delivered == second.flows_offered

    def test_colliding_manual_host_bumps_prefix(self):
        world = scenarios.build("fig1", seed=11)
        world.attach_host("traffic-c0", at="a")
        report = small_profile().drive(world)
        assert report.payloads_delivered == report.flows_offered
        assert "traffic2-c0" in world.hosts
        assert world.host("traffic-c0").assembly.aid == 100  # untouched

    def test_invalid_parameters_rejected(self):
        world = scenarios.build("fig1", seed=12)
        with pytest.raises(ValueError):
            TrafficProfile(clients=0).drive(world)
        with pytest.raises(ValueError):
            TrafficProfile(window=0.0).drive(world)

    def test_inputs_that_cannot_run_are_refused(self):
        for name, value in (
            ("duration", 0.0),
            ("duration", -5.0),
            ("hosts", -1),
            ("peak_per_host", -0.1),
            ("https_fraction", 1.5),
            ("tortoise_fraction", -0.01),
        ):
            with pytest.raises(ValueError, match=f"TraceConfig.{name}"):
                TraceConfig(**{name: value})
        world = scenarios.build("fig1", seed=15)
        before = dict(world.hosts)
        with pytest.raises(ValueError, match="max_flows"):
            small_profile(max_flows=-3).drive(world)
        assert world.hosts == before

    def test_single_as_world_carries_traffic(self):
        world = WorldBuilder(seed=13).asys("solo").build()
        report = small_profile(clients=2, servers=1).drive(world)
        assert report.payloads_delivered == report.flows_offered
