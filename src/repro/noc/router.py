"""Cycle-accurate wormhole router model.

Each router has up to five ports (``X+``, ``X-``, ``Y+``, ``Y-``, ``LOCAL``)
with one flit FIFO per *input* port, credit-based flow control towards its
downstream neighbours and one arbiter per *output* port.  Which ports exist,
which output a header flit requests and which input ports may legally
contend for an output all come from the configuration's pluggable
:class:`~repro.topology.Topology` (mesh, torus, ring, concentrated mesh; XY
or YX dimension order), so the same router model serves every topology.
Wormhole switching is modelled faithfully:

* only the **head** flit of a packet takes part in switch allocation;
* once an input port wins an output port it keeps it until the **tail** flit
  has been forwarded (the wormhole lock), so a blocked packet holds the
  output port and back-pressures its upstream routers;
* body/tail flits stream at one flit per cycle per output port, subject to
  downstream credits.

The arbitration policy is pluggable through :mod:`repro.core.arbitration`:
plain round-robin for the regular design, the WaW flit-counter weighted
round-robin for the proposed design.  The router pipeline is abstracted as a
configurable latency applied to head flits between their arrival at an input
buffer and their eligibility for allocation (``RouterTiming.routing_latency``),
which reproduces the zero-load per-hop latency of a multi-stage router
without simulating every stage.

Route computation is a pipeline stage of its own, run once per hop: when a
head flit enters an input buffer (:meth:`Router.accept_flit`) the router
looks its destination up in its row of the topology's next-port table
(:meth:`~repro.topology.Topology.next_port_row`, built once per topology and
shared by every network on it) and stores the requested output port on the
flit (``Flit.out_port``).  Switch allocation then only compares that stored
port against each output port; it never re-routes a waiting flit.

Routers never move flits directly; they emit *events* (forward, eject,
credit return) that the :class:`~repro.noc.network.Network` applies at the
end of the cycle, making the simulation independent of the order in which
routers are evaluated within a cycle.
"""

from __future__ import annotations

from typing import Deque, Dict, List, Optional, Tuple

from ..core.arbitration import Arbiter, make_arbiter
from ..core.config import NoCConfig
from ..core.weights import WeightTable
from ..geometry import Coord, Port
from .buffer import FlitBuffer
from .flit import Flit

__all__ = ["Router", "RouterEvent"]

#: Events a router emits during one cycle, applied by the network afterwards:
#: ``("forward", router, out_port, flit)`` -- flit leaves through a directional output;
#: ``("eject", router, flit)``             -- flit is delivered to the local NIC;
#: ``("credit", router, in_port)``         -- one credit is returned upstream of ``in_port``.
RouterEvent = Tuple

#: An input port with its FIFO, as switch allocation scans them.
_Input = Tuple[Port, Deque[Flit]]


class Router:
    """One wormhole router of the mesh."""

    def __init__(
        self,
        coord: Coord,
        config: NoCConfig,
        weight_table: Optional[WeightTable] = None,
    ):
        self.coord = coord
        self.config = config
        self.mesh = config.mesh
        self.topology = config.topology
        self.timing = config.timing

        self.input_ports: List[Port] = list(self.topology.input_ports(coord))
        self.output_ports: List[Port] = list(self.topology.output_ports(coord))

        self.buffers: Dict[Port, FlitBuffer] = {
            port: FlitBuffer(config.buffer_depth, name=f"{coord}:{port.value}")
            for port in self.input_ports
        }
        #: Which output port the packet at the head of each input currently owns.
        self.input_grant: Dict[Port, Optional[Port]] = {p: None for p in self.input_ports}
        #: Which input port currently owns each output port (wormhole lock).
        self.output_owner: Dict[Port, Optional[Port]] = {p: None for p in self.output_ports}
        #: Credits available towards the downstream buffer of each directional output.
        self.output_credits: Dict[Port, int] = {
            port: config.buffer_depth for port in self.output_ports if port is not Port.LOCAL
        }

        self.arbiters: Dict[Port, Arbiter] = {}
        inputs = {port: (port, buffer.flits) for port, buffer in self.buffers.items()}
        #: Switch allocation order: each output port some input may request,
        #: with its arbiter and the (input port, FIFO) pairs of the arbiter's
        #: candidates.  An output without candidates is never owned.
        self._allocation: List[Tuple[Port, Arbiter, Tuple[_Input, ...]]] = []
        for out_port in self.output_ports:
            candidates = self.topology.legal_inputs_for_output(coord, out_port)
            if not candidates:
                continue
            weights = (
                weight_table.arbitration_weights(coord, out_port)
                if (config.is_waw and weight_table is not None)
                else None
            )
            arbiter = self.arbiters[out_port] = make_arbiter(
                candidates, weighted=config.is_waw, weights=weights
            )
            self._allocation.append((out_port, arbiter, tuple(inputs[p] for p in candidates)))
        #: Every input FIFO, for the emptiness and readiness scans.
        self._fifos: List[Deque[Flit]] = [buffer.flits for buffer in self.buffers.values()]
        #: Route computation: this router's output port for every destination,
        #: indexed by row-major node id (its row of the next-port table).
        self._next_port = self.topology.next_port_row(coord)
        self._width = self.topology.width

        # Statistics / idle bookkeeping.
        self.forwarded_flits = 0
        self._was_idle = True

    # ------------------------------------------------------------------
    # Buffer interface used by the network when applying events
    # ------------------------------------------------------------------
    def accept_flit(self, in_port: Port, flit: Flit, ready_cycle: int) -> None:
        """Enqueue an incoming flit on ``in_port`` (called by the network).

        This is the route-computation stage: a head flit gets the output
        port it requests here stored in ``flit.out_port``.
        """
        flit.ready_cycle = ready_cycle
        self.buffers[in_port].push(flit)
        if flit.is_head:
            destination = flit.packet.message.destination
            flit.out_port = self._next_port[destination.y * self._width + destination.x]

    def buffered_flits(self) -> int:
        return sum(map(len, self._fifos))

    def has_work(self) -> bool:
        return any(self._fifos)

    # ------------------------------------------------------------------
    # Activity introspection / bulk idle (event-driven backend support)
    # ------------------------------------------------------------------
    def next_ready_cycle(self) -> Optional[int]:
        """Earliest ``ready_cycle`` among the head-of-line flits; ``None`` if empty.

        This is a conservative lower bound on the next cycle at which this
        router can move a flit: every action of :meth:`step` (allocation or
        forwarding) starts from a head-of-line flit whose ``ready_cycle`` has
        been reached.
        """
        ready = [fifo[0].ready_cycle for fifo in self._fifos if fifo]
        return min(ready) if ready else None

    def skip_cycles(self, cycles: int) -> None:
        """Replay ``cycles`` consecutive no-activity steps in closed form.

        The caller (the event-driven backend) guarantees that during the
        skipped stretch no head-of-line flit anywhere in the network is
        ready, so a cycle-accurate step of this router would at most notify
        requester-less arbiters of an idle cycle (a no-op for round-robin, a
        saturating credit refill for WaW) -- exactly what this method applies
        in bulk.  Output ports held by a wormhole lock are skipped, matching
        the per-cycle code path.
        """
        if cycles <= 0:
            return
        if not self.has_work():
            self._settle_idle()
            return
        self._was_idle = False
        for out_port, arbiter in self.arbiters.items():
            if self.output_owner[out_port] is None:
                arbiter.idle_cycles(cycles)

    def _settle_idle(self) -> None:
        """Apply the one-time arbiter refill of a router that went quiet.

        The WaW credit counters refill while their output ports sit idle;
        doing it once (capped at the buffer depth) when the router goes quiet
        is equivalent to calling idle_cycle every empty cycle.
        """
        if self._was_idle:
            return
        for arbiter in self.arbiters.values():
            arbiter.idle_cycles(self.config.buffer_depth)
        self._was_idle = True

    # ------------------------------------------------------------------
    # One simulation cycle
    # ------------------------------------------------------------------
    def step(self, now: int, events: List[RouterEvent]) -> None:
        """Evaluate one cycle, appending the resulting events to ``events``."""
        if not self.has_work():
            # Nothing buffered anywhere: apply the one-time idle refill.
            self._settle_idle()
            return
        self._was_idle = False

        output_owner = self.output_owner
        input_grant = self.input_grant
        for out_port, arbiter, candidates in self._allocation:
            owner = output_owner[out_port]
            if owner is not None:
                self._forward_from(owner, out_port, now, events)
                continue
            # The requesters: free inputs whose ready head-of-line flit asks
            # for this output.  Only head flits carry an ``out_port``, so the
            # comparison also filters out body and tail flits.
            requesters = [
                in_port
                for in_port, fifo in candidates
                if fifo
                and fifo[0].out_port is out_port
                and fifo[0].ready_cycle <= now
                and input_grant[in_port] is None
            ]
            if not requesters:
                arbiter.idle_cycle()
                continue
            if out_port is not Port.LOCAL and self.output_credits[out_port] <= 0:
                # The downstream buffer is full: allocation is deferred, the
                # arbiter state is left untouched (nobody is served).
                continue
            winner = arbiter.grant(requesters)
            if winner is None:  # pragma: no cover - requesters is non-empty
                continue
            output_owner[out_port] = winner
            input_grant[winner] = out_port
            self._forward_from(winner, out_port, now, events)

    # ------------------------------------------------------------------
    def _forward_from(
        self, in_port: Port, out_port: Port, now: int, events: List[RouterEvent]
    ) -> None:
        """Move one flit of the packet owning ``out_port`` (if possible)."""
        fifo = self.buffers[in_port].flits
        if not fifo or fifo[0].ready_cycle > now:
            return
        if out_port is not Port.LOCAL and self.output_credits[out_port] <= 0:
            return
        flit = fifo.popleft()
        self.forwarded_flits += 1
        # Return a credit to whoever feeds this input port.
        events.append(("credit", self, in_port))
        if out_port is Port.LOCAL:
            events.append(("eject", self, flit))
        else:
            self.output_credits[out_port] -= 1
            events.append(("forward", self, out_port, flit))
        if flit.is_tail:
            self.output_owner[out_port] = None
            self.input_grant[in_port] = None

    # ------------------------------------------------------------------
    def return_credit(self, out_port: Port) -> None:
        """Called by the network when the downstream buffer freed one slot."""
        if out_port is Port.LOCAL:
            return
        self.output_credits[out_port] += 1
        if self.output_credits[out_port] > self.config.buffer_depth:
            raise RuntimeError(
                f"credit overflow on {self.coord} {out_port}: flow-control protocol violation"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Router({self.coord}, {self.buffered_flits()} flits buffered)"
