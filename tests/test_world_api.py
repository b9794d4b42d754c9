"""Tests for the top-level public API: `repro` and the named presets
driven through `scenarios.build(...)` / `attach_host(..., at=...)`.

Parsing, AID plans and addressing errors are pinned in
`test_scenarios.py` / `test_topology_builder.py`; this file covers what
those leave out — built-world wiring, preset routing and end-to-end data
flow — plus the package surface.
"""

import pytest

import repro
from repro import scenarios
from repro.core.autonomous_system import ApnaHostNode
from repro.topology import TopologySpec, World


def _deliver(world, src_at, dst_at, data):
    """One early-data connection from a host at ``src_at`` to one at
    ``dst_at``; returns what the listener received."""
    alice = world.attach_host("alice", at=src_at)
    bob = world.attach_host("bob", at=dst_at)
    received = []
    bob.listen(80, lambda session, transport, data: received.append(data))
    peer = bob.acquire_ephid_direct()
    alice.connect(peer.cert, early_data=data, dst_port=80)
    world.run()
    return received


class TestBuildTwoAsInternet:
    def test_returns_wired_world(self):
        world = scenarios.build("fig1", seed=1)
        assert world.as_a.aid == 100
        assert world.as_b.aid == 200
        assert world.rpki is world.as_a.rpki

    def test_custom_aids(self):
        spec = TopologySpec.fig1(aid_a=3320, aid_b=1299)
        world = World.from_spec(spec, seed=1)
        assert world.as_a.aid == 3320
        assert world.as_b.aid == 1299

    def test_both_ases_published_to_rpki(self):
        world = scenarios.build("fig1", seed=1)
        assert world.as_a.aid in world.rpki
        assert world.as_b.aid in world.rpki

    def test_different_seeds_differ(self):
        one = scenarios.build("fig1", seed=1)
        two = scenarios.build("fig1", seed=2)
        assert one.as_a.keys.signing.public != two.as_a.keys.signing.public


class TestAttachHost:
    def test_attaches_bootstrapped_host(self):
        world = scenarios.build("fig1", seed=3)
        host = world.attach_host("alice", at="a")
        assert isinstance(host, ApnaHostNode)
        assert world.hosts["alice"] is host
        # Bootstrapped: the host can immediately acquire EphIDs.
        owned = host.acquire_ephid_direct()
        assert len(owned.ephid) == 16

    def test_end_to_end_data_flow(self):
        world = scenarios.build("fig1", seed=4)
        assert _deliver(world, "a", "b", b"hello world") == [b"hello world"]


class TestChainTopology:
    def test_data_flows_across_the_chain(self):
        world = scenarios.build("chain:3", seed=2)
        assert _deliver(world, 100, 300, b"across the chain") == [
            b"across the chain"
        ]


class TestStarTopology:
    def test_hub_and_leaves(self):
        world = scenarios.build("star:3", seed=1)
        assert world.ases[0].aid == 1
        assert [a.aid for a in world.ases[1:]] == [100, 200, 300]

    def test_leaf_to_leaf_crosses_hub(self):
        world = scenarios.build("star:3", seed=1)
        assert world.as_path(100, 300) == [100, 1, 300]

    def test_needs_a_leaf(self):
        with pytest.raises(ValueError):
            scenarios.spec("star:0")


class TestTransitStubTopology:
    def test_core_is_full_mesh(self):
        world = scenarios.build("transit-stub:3x0", seed=1)
        assert world.as_path(1, 3) == [1, 3]  # direct, not via 2

    def test_stub_to_stub_crosses_both_providers(self):
        world = scenarios.build("transit-stub:2x1", seed=1)
        assert world.as_path(100, 200) == [100, 1, 2, 200]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TopologySpec.transit_stub(0, 1)
        with pytest.raises(ValueError):
            TopologySpec.transit_stub(1, -1)


class TestPackageSurface:
    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_new_api_exported_at_the_root(self):
        for name in (
            "World",
            "WorldBuilder",
            "TopologySpec",
            "TrafficProfile",
            "scenarios",
        ):
            assert name in repro.__all__

    def test_docstring_mentions_the_paper(self):
        assert "CoNEXT 2016" in repro.__doc__

    def test_quickstart_docs_use_the_scenario_api(self):
        assert 'scenarios.build("fig1"' in repro.__doc__
        assert "repro.scenarios" in repro.__doc__
