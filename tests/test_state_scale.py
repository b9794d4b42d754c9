"""The ``metro:N`` scale preset and its memory contract.

The tentpole claim of :mod:`repro.state`: a metro-sized registry — 10^5
to 10^6 registered HIDs per AS — fits in packed columns with a bounded,
sub-linear number of Python objects and a resident-set footprint that
tracks the column bytes, not per-host object overhead.  These tests pin
the claim at a CI-sized rung (``metro:100k``), check the preset's
parser/validation surface and the streaming trace/profile path that
keeps workload generation itself in bounded memory.
"""

import gc
import os

import numpy as np
import pytest

from repro import scenarios
from repro.core.errors import ApnaError
from repro.core.hostdb import FIRST_HOST_HID
from repro.state import ColumnarHostDatabase
from repro.topology import (
    PopulationSpec,
    TopologyError,
    TopologySpec,
    UnknownAsError,
    WorldBuilder,
)
from repro.workload import TraceConfig, TraceGenerator, TrafficProfile
from repro.workload.profile import SLICE_SECONDS

METRO_HOSTS = 100_000
#: RSS budget for one metro:100k build (2 x 100k hosts).  The packed
#: columns cost ~53 B/host (~11 MiB total); the ceiling leaves room for
#: keystream temporaries and allocator slack while staying far below
#: what 200k per-host record objects would need.
RSS_CEILING_BYTES = 96 * 1024 * 1024


def _rss_bytes() -> "int | None":
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        return None


class TestMetroMemoryBudget:
    def test_metro_build_stays_under_rss_ceiling(self):
        if _rss_bytes() is None:
            pytest.skip("/proc/self/statm not readable on this platform")
        gc.collect()
        before = _rss_bytes()
        world = scenarios.build(f"metro:{METRO_HOSTS}", seed=1)
        after = _rss_bytes()
        try:
            assert isinstance(world.asys("a").hostdb, ColumnarHostDatabase)
            assert after - before < RSS_CEILING_BYTES, (
                f"metro:{METRO_HOSTS} grew RSS by {(after - before) / 2**20:.1f}"
                f" MiB (ceiling {RSS_CEILING_BYTES / 2**20:.0f} MiB)"
            )
        finally:
            world.close()

    def test_metro_object_count_is_sublinear(self):
        """Registering 2 x 100k hosts must allocate a bounded number of
        Python objects — the columns absorb the population."""
        gc.collect()
        baseline = len(gc.get_objects())
        world = scenarios.build(f"metro:{METRO_HOSTS}", seed=1)
        try:
            grown = len(gc.get_objects()) - baseline
            assert grown < METRO_HOSTS // 5, (
                f"2x{METRO_HOSTS} hosts allocated {grown} objects; "
                "expected the population to live in columns, not objects"
            )
            for name in ("a", "b"):
                hostdb = world.asys(name).hostdb
                assert len(hostdb) == METRO_HOSTS + 6
        finally:
            world.close()


class TestMetroPreset:
    def test_suffix_parsing(self):
        spec_250k = scenarios.spec("metro:250k")
        assert [p.hosts for p in spec_250k.populations] == [250_000, 250_000]
        spec_2m = scenarios.spec("metro:2M")
        assert [p.hosts for p in spec_2m.populations] == [2_000_000] * 2
        spec_default = scenarios.spec("metro")
        assert [p.hosts for p in spec_default.populations] == [1_000_000] * 2
        assert {p.at for p in spec_default.populations} == {"a", "b"}

    @pytest.mark.parametrize("bad", ["metro:abc", "metro:1G", "metro:k"])
    def test_bad_parameter_rejected(self, bad):
        with pytest.raises(TopologyError, match="metro"):
            scenarios.spec(bad)

    def test_zero_hosts_rejected(self):
        with pytest.raises(TopologyError, match="at least one host"):
            scenarios.spec("metro:0")

    def test_small_metro_world_shape(self):
        world = scenarios.build("metro:50", seed=3)
        try:
            for name in ("a", "b"):
                hostdb = world.asys(name).hostdb
                # 50 bulk HIDs + one named host + 5 service endpoints.
                assert len(hostdb) == 50 + 6
            # The named pair still works as protocol endpoints.
            assert "alice" in world.hosts and "bob" in world.hosts
        finally:
            world.close()


class TestPopulationSpec:
    def test_unknown_as_rejected(self):
        spec = TopologySpec.fig1()
        bad = TopologySpec(
            ases=spec.ases,
            links=spec.links,
            hosts=spec.hosts,
            populations=(PopulationSpec("nowhere", 10),),
        )
        with pytest.raises(UnknownAsError):
            bad.validate()

    def test_builder_population(self):
        world = (
            WorldBuilder(seed=5)
            .asys("x")
            .asys("y")
            .link("x", "y")
            .population(25, at="x")
            .build()
        )
        try:
            assert len(world.asys("x").hostdb) == 25 + 5
            assert len(world.asys("y").hostdb) == 5
        finally:
            world.close()

    def test_builder_population_validation(self):
        builder = WorldBuilder().asys("x")
        with pytest.raises(UnknownAsError):
            builder.population(10, at="nowhere")
        with pytest.raises(TopologyError, match="at least one host"):
            builder.population(0, at="x")

    def test_register_population_guards(self):
        world = scenarios.build("fig1", seed=1)
        try:
            asys = world.asys("a")
            with pytest.raises(ValueError, match="at least 1"):
                asys.register_population(0)
            # Populations must ship with the spawn snapshot: once a shard
            # pool exists (any non-None value), bulk loads are refused.
            asys.shard_pool = object()
            with pytest.raises(ApnaError, match="before start_shard_pool"):
                asys.register_population(10)
            asys.shard_pool = None
            hids = asys.register_population(10)
            assert len(hids) == 10
            assert hids.start >= FIRST_HOST_HID
            assert all(asys.hostdb.is_valid(hid) for hid in hids)
        finally:
            world.close()


class TestStreamingTrace:
    def test_iter_arrays_is_deterministic_and_sorted(self):
        cfg = TraceConfig(hosts=64, duration=4_000.0, seed=11)
        chunks_a = list(TraceGenerator(cfg).iter_arrays(chunk_duration=900.0))
        chunks_b = list(TraceGenerator(cfg).iter_arrays(chunk_duration=900.0))
        assert len(chunks_a) == len(chunks_b) == 5  # ceil(4000 / 900)
        for left, right in zip(chunks_a, chunks_b):
            for column in ("start", "duration", "host_id", "is_https"):
                assert np.array_equal(left[column], right[column])
        starts = np.concatenate([c["start"] for c in chunks_a])
        assert len(starts) > 0
        assert np.all(np.diff(starts) >= 0)  # globally time-sorted
        assert starts[-1] <= cfg.duration
        hosts = np.concatenate([c["host_id"] for c in chunks_a])
        assert hosts.min() >= 0 and hosts.max() < cfg.hosts

    def test_stream_matches_iter_arrays(self):
        cfg = TraceConfig(hosts=32, duration=1_800.0, seed=4)
        records = list(TraceGenerator(cfg).stream(chunk_duration=600.0))
        chunks = list(TraceGenerator(cfg).iter_arrays(chunk_duration=600.0))
        flat = [
            (float(c["start"][i]), float(c["duration"][i]), int(c["host_id"][i]))
            for c in chunks
            for i in range(len(c["start"]))
        ]
        assert [(r.start, r.duration, r.host_id) for r in records] == flat

    def test_chunk_duration_validation(self):
        generator = TraceGenerator(TraceConfig(hosts=8, duration=100.0))
        with pytest.raises(ValueError, match="chunk_duration"):
            next(generator.iter_arrays(chunk_duration=0.0))

    def test_streamed_profile_delivers_all_flows(self):
        # Three slices of a sparse trace: every slice's launches are
        # scheduled and simulated in turn, and every flow is delivered.
        trace = TraceConfig(
            hosts=16, duration=3 * SLICE_SECONDS, peak_per_host=0.0005, seed=6
        )
        slices = [
            len(columns["start"])
            for columns in TraceGenerator(trace).iter_arrays(
                chunk_duration=SLICE_SECONDS
            )
        ]
        assert len(slices) == 3 and sum(count > 0 for count in slices) >= 2
        world = scenarios.build("fig1", seed=2)
        try:
            profile = TrafficProfile(
                trace=trace, clients=2, servers=1, max_flows=None, window=2.0
            )
            report = profile.drive(world)
            assert report.flows_offered == sum(slices)
            assert report.sessions_opened == sum(slices)
            assert report.payloads_delivered == sum(slices)
            # max_flows counts across slices: one flow past the first.
            profile.max_flows = slices[0] + 1
            report = profile.drive(world)
            assert report.flows_offered == report.payloads_delivered == slices[0] + 1
        finally:
            world.close()
