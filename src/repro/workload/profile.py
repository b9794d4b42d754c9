"""Traffic profiles: bind Section V flow traces to a built world.

The experiments used to hand-roll the same loop — attach clients and
servers, acquire a serving EphID, iterate a trace, connect, run — for
every topology.  A :class:`TrafficProfile` packages that whole pipeline
behind one call::

    >>> from repro import scenarios
    >>> from repro.workload import TrafficProfile
    >>> world = scenarios.build("chain:3", seed=1)
    >>> report = TrafficProfile(clients=4, servers=2, max_flows=200).drive(world)
    >>> report.payloads_delivered == report.sessions_opened
    True

Flow arrivals come from :class:`~repro.workload.flows.TraceGenerator`
(the paper's diurnal/dragonfly-tortoise trace shape); the trace's span is
compressed into ``window`` seconds of virtual time so even a 24 h trace
drives a short deterministic simulation.  The trace is generated and
simulated one :data:`SLICE_SECONDS` slice at a time, so memory stays
bounded by one slice however long the trace.  Thousands of sessions
across arbitrary topologies are one call: crank ``trace``/``max_flows``
up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .flows import TraceConfig, TraceGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..topology import World

__all__ = ["TrafficProfile", "TrafficReport"]

#: Trace seconds generated, scheduled and simulated per slice.  A trace
#: no longer than this is one slice.
SLICE_SECONDS = 3_600.0


def _ref_list(refs: object, *, default: object) -> list[object]:
    """Normalize an AS-ref option: None -> [default]; a single ref (str,
    AID, AS object) -> one-element list; otherwise list(refs).  A bare
    string must not be iterated character by character."""
    if refs is None:
        return [default]
    if isinstance(refs, (str, int)):
        return [refs]
    try:
        return list(refs)
    except TypeError:
        return [refs]


@dataclass
class TrafficReport:
    """What happened when a profile drove a world."""

    flows_offered: int
    sessions_opened: int
    payloads_delivered: int
    responses_received: int
    clients: int
    servers: int
    sim_time: float
    events: int
    by_server: dict[str, int] = field(default_factory=dict)


@dataclass
class TrafficProfile:
    """A declarative multi-flow workload for any :class:`World`.

    Clients home on ``client_at`` ASes (default: the world's first AS)
    and servers on ``server_at`` (default: the last AS), round-robin when
    several are given.  Each trace flow becomes one APNA session: the
    mapped client connects to a server's published EphID certificate with
    the request as 0-RTT early data, at the flow's (time-compressed)
    arrival instant.  The trace is replayed one :data:`SLICE_SECONDS`
    slice at a time: a slice's launches are scheduled, and the world is
    run up to that slice's end before the next slice is drawn.
    """

    trace: TraceConfig = field(
        default_factory=lambda: TraceConfig(hosts=64, duration=600.0)
    )
    clients: int = 4
    servers: int = 2
    #: AS refs (name/AID/AS object) — a single ref or a sequence of them.
    client_at: object | Sequence[object] | None = None
    server_at: object | Sequence[object] | None = None
    max_flows: int | None = 1_000
    #: Virtual seconds the trace's time axis is compressed into.
    window: float = 2.0
    #: Flow arrivals are grouped into bursts of this many and launched at
    #: the group's first arrival instant, so border routers with
    #: ``forwarding_batch_size > 1`` actually see burst-sized packet
    #: trains (the paper's §V-B data plane regime).  1 = one event per
    #: flow at its own trace instant.
    burst: int = 1
    payload: bytes = b"GET / HTTP/1.1"
    #: Echo a response for each delivered request.
    respond: bool = True
    port: int = 80
    #: Attached host names are ``<prefix>-c<i>`` / ``<prefix>-s<j>``.
    #: Re-driving the same world auto-bumps the prefix (``traffic2``, ...)
    #: so each run gets a fresh, non-colliding set of endpoints.
    host_prefix: str = "traffic"

    def drive(self, world: "World") -> TrafficReport:
        """Attach the endpoints, replay the trace, drain the simulator."""
        if self.clients < 1 or self.servers < 1:
            raise ValueError("a traffic profile needs >=1 client and >=1 server")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.burst < 1:
            raise ValueError("burst must be at least 1")
        if self.max_flows is not None and self.max_flows < 0:
            raise ValueError("max_flows must not be negative")

        client_ases = [
            world.asys(ref)
            for ref in _ref_list(self.client_at, default=world.ases[0])
        ]
        server_ases = [
            world.asys(ref)
            for ref in _ref_list(self.server_at, default=world.ases[-1])
        ]
        prefix = self.host_prefix
        generation = 2
        while any(
            f"{prefix}-{kind}{k}" in world.hosts
            for kind, count in (("c", self.clients), ("s", self.servers))
            for k in range(count)
        ):
            prefix = f"{self.host_prefix}{generation}"
            generation += 1

        # One batched route recomputation for all endpoints (the default
        # would rerun all-pairs Dijkstra per host).
        clients = [
            world.attach_host(
                f"{prefix}-c{i}",
                at=client_ases[i % len(client_ases)],
                recompute_routes=False,
            )
            for i in range(self.clients)
        ]
        servers = [
            world.attach_host(
                f"{prefix}-s{j}",
                at=server_ases[j % len(server_ases)],
                recompute_routes=False,
            )
            for j in range(self.servers)
        ]
        world.network.compute_routes()

        delivered_by_server: dict[str, int] = {s.name: 0 for s in servers}

        def _serve(server):
            def handler(session, transport, data):
                delivered_by_server[server.name] += 1
                if self.respond:
                    server.send_data(
                        session, b"OK " + data, dst_port=transport.src_port
                    )

            return handler

        server_certs = []
        for server in servers:
            server.listen(self.port, _serve(server))
            server_certs.append(server.acquire_ephid_direct().cert)

        opened = 0

        def _launch(host_id: int, index: int) -> None:
            nonlocal opened
            client = clients[host_id % len(clients)]
            cert = server_certs[index % len(server_certs)]
            client.connect(cert, early_data=self.payload, dst_port=self.port)
            opened += 1

        scheduler = world.network.scheduler
        scale = self.window / self.trace.duration
        base = scheduler.now
        offered = events = 0
        slice_end = 0.0
        generator = TraceGenerator(self.trace)
        for columns in generator.iter_arrays(chunk_duration=SLICE_SECONDS):
            if slice_end:
                # Drain the previous slice before scheduling this one:
                # its launches all fall at or before its end's instant.
                events += world.run_until(base + slice_end * scale)
            slice_end = min(slice_end + SLICE_SECONDS, self.trace.duration)
            starts = columns["start"]
            host_ids = columns["host_id"]
            n = len(starts)
            if self.max_flows is not None:
                n = min(n, self.max_flows - offered)
            # A burst groups arrivals within one slice, never across two.
            for group_start in range(0, n, self.burst):
                when = base + float(starts[group_start]) * scale
                for index in range(group_start, min(group_start + self.burst, n)):
                    scheduler.schedule_at(
                        when, _launch, int(host_ids[index]), offered + index
                    )
            offered += n
            if self.max_flows is not None and offered >= self.max_flows:
                break
        events += world.run()

        return TrafficReport(
            flows_offered=offered,
            sessions_opened=opened,
            payloads_delivered=sum(delivered_by_server.values()),
            responses_received=sum(len(c.inbox) for c in clients),
            clients=len(clients),
            servers=len(servers),
            sim_time=world.network.now,
            events=events,
            by_server=delivered_by_server,
        )
