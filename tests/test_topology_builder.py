"""Tests for the declarative topology layer (`repro.topology`)."""

import pytest

from repro import ApnaError
from repro.topology import (
    AsSpec,
    DuplicateHostError,
    HostSpec,
    LinkSpec,
    TopologyError,
    TopologySpec,
    UnknownAsError,
    World,
    WorldBuilder,
)


class TestTopologySpec:
    def test_validate_accepts_well_formed(self):
        spec = TopologySpec(
            ases=(AsSpec("a", 100), AsSpec("b", 200)),
            links=(LinkSpec("a", "b"),),
            hosts=(HostSpec("alice", "a"),),
        )
        assert spec.validate() is spec

    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyError):
            TopologySpec().validate()

    def test_duplicate_as_names_rejected(self):
        spec = TopologySpec(ases=(AsSpec("a", 100), AsSpec("a", 200)))
        with pytest.raises(TopologyError, match="duplicate AS name"):
            spec.validate()

    def test_duplicate_aids_rejected(self):
        spec = TopologySpec(ases=(AsSpec("a", 100), AsSpec("b", 100)))
        with pytest.raises(TopologyError, match="duplicate AID"):
            spec.validate()

    def test_link_to_unknown_as_rejected(self):
        spec = TopologySpec(
            ases=(AsSpec("a", 100),), links=(LinkSpec("a", "ghost"),)
        )
        with pytest.raises(UnknownAsError, match="ghost"):
            spec.validate()

    def test_self_link_rejected(self):
        spec = TopologySpec(ases=(AsSpec("a", 100),), links=(LinkSpec("a", "a"),))
        with pytest.raises(TopologyError):
            spec.validate()

    def test_duplicate_link_rejected_even_reversed(self):
        ases = (AsSpec("a", 100), AsSpec("b", 200))
        spec = TopologySpec(
            ases=ases, links=(LinkSpec("a", "b"), LinkSpec("b", "a", latency=0.5))
        )
        with pytest.raises(TopologyError, match="duplicate link"):
            spec.validate()

    def test_duplicate_host_names_rejected(self):
        spec = TopologySpec(
            ases=(AsSpec("a", 100),),
            hosts=(HostSpec("h", "a"), HostSpec("h", "a")),
        )
        with pytest.raises(TopologyError, match="duplicate host name"):
            spec.validate()

    def test_host_on_unknown_as_rejected(self):
        spec = TopologySpec(ases=(AsSpec("a", 100),), hosts=(HostSpec("h", "x"),))
        with pytest.raises(UnknownAsError):
            spec.validate()

    def test_unknown_policy_rejected(self):
        spec = TopologySpec(
            ases=(AsSpec("a", 100),),
            hosts=(HostSpec("h", "a", policy="per-galaxy"),),
        )
        with pytest.raises(TopologyError, match="per-galaxy"):
            spec.validate()

    def test_single_as_chain_allowed(self):
        spec = TopologySpec.chain(1)
        assert len(spec.ases) == 1
        assert spec.links == ()
        world = World.from_spec(spec, seed=1)
        # at= may be omitted in a single-AS world.
        host = world.attach_host("loner")
        assert world.hosts["loner"] is host

    def test_chain_preset_matches_old_aid_plan(self):
        spec = TopologySpec.chain(4)
        assert [a.aid for a in spec.ases] == [100, 200, 300, 400]
        assert len(spec.links) == 3

    def test_transit_stub_preset_shape(self):
        spec = TopologySpec.transit_stub(3, 2)
        assert [a.aid for a in spec.ases[:3]] == [1, 2, 3]
        assert len(spec.ases) == 9
        # full-mesh core (3 links) + 6 edge links
        assert len(spec.links) == 3 + 6


class TestWorldBuilder:
    def test_issue_style_fluent_chain(self):
        world = (
            WorldBuilder(seed=7)
            .transit("T1")
            .stub("S1", parent="T1")
            .host("alice", at="S1")
            .build()
        )
        assert isinstance(world, World)
        assert [asys.aid for asys in world.ases] == [1, 100]  # creation order
        assert world.asys("T1").aid == 1  # transit auto-AIDs count from 1
        assert world.asys("S1").aid == 100
        assert world.host("alice").assembly is world.asys("S1")

    def test_auto_aids_skip_taken_values(self):
        builder = WorldBuilder().transit("t1", aid=1).transit("t2").asys("s", aid=100)
        builder.asys("s2")
        spec = builder.link("t1", "t2").spec()
        aids = {a.name: a.aid for a in spec.ases}
        assert aids == {"t1": 1, "t2": 2, "s": 100, "s2": 200}

    def test_duplicate_as_name_rejected_immediately(self):
        builder = WorldBuilder().asys("a")
        with pytest.raises(TopologyError, match="already declared"):
            builder.asys("a")

    def test_duplicate_aid_rejected_immediately(self):
        builder = WorldBuilder().asys("a", aid=5)
        with pytest.raises(TopologyError, match="already taken"):
            builder.asys("b", aid=5)

    def test_duplicate_host_rejected_immediately(self):
        builder = WorldBuilder().asys("a").host("h", at="a")
        with pytest.raises(TopologyError, match="already declared"):
            builder.host("h", at="a")

    def test_link_to_undeclared_as_rejected(self):
        with pytest.raises(UnknownAsError):
            WorldBuilder().asys("a").link("a", "nowhere")

    def test_self_and_duplicate_links_rejected_immediately(self):
        builder = WorldBuilder().asys("a").asys("b").link("a", "b")
        with pytest.raises(TopologyError, match="itself"):
            builder.link("a", "a")
        with pytest.raises(TopologyError, match="duplicate link"):
            builder.link("b", "a")

    def test_host_on_undeclared_as_rejected(self):
        with pytest.raises(UnknownAsError):
            WorldBuilder().asys("a").host("h", at="nowhere")

    def test_built_world_routes_end_to_end(self):
        world = (
            WorldBuilder(seed=3)
            .transit("hub")
            .stub("left", parent="hub")
            .stub("right", parent="hub")
            .host("alice", at="left")
            .host("bob", at="right")
            .build()
        )
        alice, bob = world.host("alice"), world.host("bob")
        received = []
        bob.listen(80, lambda session, transport, data: received.append(data))
        peer = bob.acquire_ephid_direct()
        alice.connect(peer.cert, early_data=b"via the hub", dst_port=80)
        world.run()
        assert received == [b"via the hub"]
        assert world.as_path("left", "right") == [100, 1, 200]

    def test_host_policy_resolved_by_name(self):
        world = (
            WorldBuilder(seed=1)
            .asys("a")
            .host("h", at="a", policy="per-host")
            .build()
        )
        assert world.host("h").policy.name == "per-host"

    def test_deterministic_for_equal_seeds(self):
        make = lambda: WorldBuilder(seed=9).asys("x").asys("y").link("x", "y").build()
        one, two = make(), make()
        assert one.ases[0].keys.signing.public == two.ases[0].keys.signing.public


class TestWorldAddressing:
    @pytest.fixture()
    def world(self):
        return (
            WorldBuilder(seed=2)
            .asys("a", aid=100)
            .asys("b", aid=200)
            .link("a", "b")
            .build()
        )

    def test_asys_resolves_name_aid_and_object(self, world):
        by_name = world.asys("a")
        assert world.asys(100) is by_name
        assert world.asys(by_name) is by_name
        assert world.asys("b") is world.asys(200)

    def test_unknown_as_error_lists_known_names(self, world):
        with pytest.raises(UnknownAsError) as excinfo:
            world.attach_host("h", at="c")
        message = str(excinfo.value)
        assert "'c'" in message and "a" in message and "b" in message

    def test_unknown_as_error_is_value_and_key_error(self, world):
        with pytest.raises(ValueError):
            world.asys("ghost")
        with pytest.raises(KeyError):
            world.asys(999)

    def test_attach_host_requires_at_with_multiple_ases(self, world):
        with pytest.raises(TopologyError, match="at="):
            world.attach_host("h")

    def test_attach_host_by_aid(self, world):
        host = world.attach_host("h", at=200)
        assert host.assembly.aid == 200

    def test_duplicate_host_raises_apna_error(self, world):
        world.attach_host("alice", at="a")
        with pytest.raises(DuplicateHostError):
            world.attach_host("alice", at="b")
        with pytest.raises(ApnaError):
            world.attach_host("alice", at="a")
        assert world.host("alice").assembly.aid == 100  # original intact

    def test_host_lookup_error_lists_attached(self, world):
        world.attach_host("alice", at="a")
        with pytest.raises(ApnaError, match="alice"):
            world.host("bob")

    def test_as_a_as_b_on_two_as_world(self, world):
        assert world.as_a.aid == 100
        assert world.as_b.aid == 200

    def test_as_a_undefined_on_other_shapes(self):
        world = World.from_spec(TopologySpec.chain(3), seed=1)
        with pytest.raises(TopologyError, match="two-AS"):
            world.as_a


class TestWorldLifecycle:
    def test_advance_moves_virtual_time(self):
        world = WorldBuilder(seed=1).asys("a").build()
        assert world.now == 0.0
        world.run_until(1.5)
        assert world.now == 1.5
        world.run_until(1.0)
        assert world.now == 1.5

    def test_run_drains_events(self):
        world = (
            WorldBuilder(seed=4)
            .asys("a")
            .asys("b")
            .link("a", "b")
            .host("alice", at="a")
            .host("bob", at="b")
            .build()
        )
        bob = world.host("bob")
        peer = bob.acquire_ephid_direct()
        world.host("alice").connect(peer.cert, early_data=b"x", dst_port=80)
        assert world.run() > 0
        assert world.network.scheduler.pending == 0
