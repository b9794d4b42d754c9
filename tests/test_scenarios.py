"""Tests for the scenario registry and preset-string parsing."""

import pytest

from repro import scenarios
from repro.topology import TopologyError, TopologySpec, World


class TestPresetParsing:
    def test_fig1(self):
        spec = scenarios.spec("fig1")
        assert [a.aid for a in spec.ases] == [100, 200]

    def test_fig1_rejects_parameter(self):
        with pytest.raises(TopologyError):
            scenarios.spec("fig1:2")

    def test_chain_with_count(self):
        spec = scenarios.spec("chain:5")
        assert len(spec.ases) == 5
        assert len(spec.links) == 4

    def test_chain_requires_parameter(self):
        with pytest.raises(TopologyError, match="chain:N"):
            scenarios.spec("chain")

    def test_chain_rejects_garbage(self):
        with pytest.raises(TopologyError, match="chain:N"):
            scenarios.spec("chain:five")

    def test_star_with_count(self):
        spec = scenarios.spec("star:3")
        assert len(spec.ases) == 4  # hub + 3 leaves
        assert spec.ases[0].aid == 1

    def test_transit_stub_txs(self):
        spec = scenarios.spec("transit-stub:2x2")
        assert len(spec.ases) == 6
        assert [a.aid for a in spec.ases[:2]] == [1, 2]

    def test_transit_stub_requires_txs_form(self):
        with pytest.raises(TopologyError, match="TxS"):
            scenarios.spec("transit-stub:3")
        with pytest.raises(TopologyError, match="TxS"):
            scenarios.spec("transit-stub:axb")

    def test_unknown_scenario_lists_registered(self):
        with pytest.raises(TopologyError) as excinfo:
            scenarios.spec("moebius")
        assert "fig1" in str(excinfo.value)

    def test_whitespace_tolerated(self):
        assert scenarios.spec(" chain : 3 ") == scenarios.spec("chain:3")


class TestBuild:
    def test_build_returns_world(self):
        world = scenarios.build("fig1", seed=11)
        assert isinstance(world, World)
        assert world.as_a.aid == 100

    def test_build_is_deterministic(self):
        one = scenarios.build("chain:3", seed=5)
        two = scenarios.build("chain:3", seed=5)
        assert one.ases[0].keys.signing.public == two.ases[0].keys.signing.public

    def test_built_chain_routes(self):
        world = scenarios.build("chain:4", seed=1)
        assert world.as_path(100, 400) == [100, 200, 300, 400]


class TestRegistry:
    def test_names_include_builtins(self):
        for name in ("fig1", "chain", "star", "transit-stub"):
            assert name in scenarios.names()

    def test_register_and_resolve_custom(self):
        name = "test-dumbbell"
        if name in scenarios.names():  # pragma: no cover - reruns in one process
            del scenarios._REGISTRY[name]

        @scenarios.register(name, description="two hubs, N leaves each")
        def _dumbbell(arg):
            n = int(arg or 1)
            from repro.topology import AsSpec, LinkSpec

            hubs = (AsSpec("h1", 1, "transit"), AsSpec("h2", 2, "transit"))
            leaves = tuple(
                AsSpec(f"l{side}{i}", 100 * side + i, "stub")
                for side in (1, 2)
                for i in range(n)
            )
            links = (LinkSpec("h1", "h2"),) + tuple(
                LinkSpec(f"h{side}", f"l{side}{i}")
                for side in (1, 2)
                for i in range(n)
            )
            return TopologySpec(ases=hubs + leaves, links=links)

        try:
            world = scenarios.build(f"{name}:2", seed=3)
            assert len(world.ases) == 6
            assert world.as_path("l10", "l21") == [100, 1, 2, 201]
        finally:
            del scenarios._REGISTRY[name]

    def test_double_registration_rejected(self):
        with pytest.raises(TopologyError, match="already registered"):
            scenarios.register("fig1")(lambda arg: TopologySpec())


#: One sample argument per registered preset (``None``: taken bare).  The
#: population-taking presets share one count, so a second name for an
#: existing shape builds an equal spec and fails below.
_PRESET_SAMPLES = {
    "chain": "4",
    "crash-storm": "4",
    "fig1": None,
    "metro": "4",
    "shutoff-storm": "4",
    "star": "4",
    "transit-stub": "2x2",
}


def test_one_name_per_topology():
    """No alias preset builds another preset's spec."""
    unsampled = sorted(set(scenarios.names()) - set(_PRESET_SAMPLES))
    assert not unsampled, f"add a sample argument for presets {unsampled}"
    specs = {
        name: scenarios.spec(name if arg is None else f"{name}:{arg}")
        for name, arg in _PRESET_SAMPLES.items()
    }
    names = list(specs)
    same = [
        (left, right)
        for i, left in enumerate(names)
        for right in names[i + 1 :]
        if specs[left] == specs[right]
    ]
    assert not same, f"presets naming one topology: {same}"
