"""Property-based tests (hypothesis) for ``Topology.route()`` invariants.

The WCTT analyses and the simulator both assume that routes are
deterministic, physically connected, minimal under the topology's own
distance metric and compliant with the static legal-turn relation of the
routing strategy -- for *every* topology and *every* src/dst pair.  Random
example-based tests cannot cover that space; these properties can.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis", reason="property tests need hypothesis")
from hypothesis import given, settings, strategies as st

from repro.geometry import Coord, Port
from repro.topology import make_topology

SETTINGS = settings(max_examples=80, deadline=None)


# ----------------------------------------------------------------------
# Strategies: a topology plus two of its nodes
# ----------------------------------------------------------------------
@st.composite
def topology_and_endpoints(draw):
    kind = draw(st.sampled_from(("mesh", "torus", "ring", "cmesh")))
    routing = draw(st.sampled_from(("xy", "yx")))
    if kind == "ring":
        width, height = draw(st.integers(2, 9)), 1
        topology = make_topology("ring", width, 1, routing=routing)
    elif kind == "cmesh":
        width = draw(st.integers(2, 5))
        height = draw(st.integers(2, 5))
        concentration = draw(st.sampled_from((2, 4)))
        topology = make_topology(
            "cmesh", width, height, routing=routing, concentration=concentration
        )
    else:
        width = draw(st.integers(2, 6))
        height = draw(st.integers(2, 6))
        topology = make_topology(kind, width, height, routing=routing)
    source = Coord(draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
    destination = Coord(draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
    return topology, source, destination


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@SETTINGS
@given(topology_and_endpoints())
def test_route_is_deterministic(case):
    topology, source, destination = case
    assert topology.route(source, destination) == topology.route(source, destination)


@SETTINGS
@given(topology_and_endpoints())
def test_route_endpoints_and_connectivity(case):
    """Routes start at src (LOCAL in), end at dst (LOCAL out) and follow links."""
    topology, source, destination = case
    hops = topology.route(source, destination)

    assert hops[0].router == source
    assert hops[0].in_port is Port.LOCAL
    assert hops[-1].router == destination
    assert hops[-1].out_port is Port.LOCAL
    for hop, nxt in zip(hops, hops[1:]):
        assert hop.out_port is not Port.LOCAL
        # The physical link of hop.out_port leads to the next hop's router,
        # and travel-direction port naming carries the port name across it.
        assert topology.downstream(hop.router, hop.out_port) == nxt.router
        assert nxt.in_port is hop.out_port
        assert topology.upstream(nxt.router, nxt.in_port) == hop.router


@SETTINGS
@given(topology_and_endpoints())
def test_route_is_minimal_for_its_metric(case):
    """Hop count matches the topology's own (shortest-path) distance.

    On the mesh and the concentrated mesh that metric *is* the Manhattan
    distance; on wrapped topologies it takes the shorter way around each
    axis, which is the shortest path dimension-ordered routing can achieve.
    """
    topology, source, destination = case
    hops = topology.route(source, destination)
    assert len(hops) == topology.distance(source, destination) + 1
    if not topology.has_wraparound:
        assert topology.distance(source, destination) == source.manhattan(destination)
    else:
        expected = 0
        for axis, size, lo, hi in (
            ("x", topology.width, source.x, destination.x),
            ("y", topology.height, source.y, destination.y),
        ):
            direct = abs(hi - lo)
            expected += min(direct, size - direct)
        assert topology.distance(source, destination) == expected


@SETTINGS
@given(topology_and_endpoints())
def test_route_dimension_order_never_reverses(case):
    """Dimension-ordered routes resolve the first axis completely, then the
    second, and never mix directions within an axis."""
    topology, source, destination = case
    ports = [hop.out_port for hop in topology.route(source, destination)[:-1]]
    axis_of = {
        Port.XPLUS: "x", Port.XMINUS: "x", Port.YPLUS: "y", Port.YMINUS: "y",
    }
    axes = [axis_of[p] for p in ports]
    first, second = topology.routing.axes
    assert axes == sorted(axes, key=lambda a: (a != first)), axes
    for axis in ("x", "y"):
        directions = {p for p in ports if axis_of[p] == axis}
        assert len(directions) <= 1  # never both plus and minus on one axis


@SETTINGS
@given(topology_and_endpoints())
def test_route_complies_with_legal_turns(case):
    """Every traversed (input -> output) pair is a statically legal turn.

    This is the property the WCTT analyses' interference sets and the
    routers' arbiter candidate lists are built on.  The degenerate
    self-route (a single LOCAL -> LOCAL hop) is excluded: a node never sends
    to itself *through the network*, so LOCAL is deliberately not a legal
    input for the LOCAL output.
    """
    topology, source, destination = case
    if source == destination:
        return
    for hop in topology.route(source, destination):
        legal_outputs = topology.legal_outputs_for_input(hop.router, hop.in_port)
        legal_inputs = topology.legal_inputs_for_output(hop.router, hop.out_port)
        assert hop.out_port in legal_outputs, hop
        assert hop.in_port in legal_inputs, hop


@SETTINGS
@given(topology_and_endpoints())
def test_route_matches_per_router_output_port(case):
    """route() and the simulator's per-router output_port() agree hop by hop."""
    topology, source, destination = case
    for hop in topology.route(source, destination):
        assert topology.output_port(hop.router, destination) is hop.out_port


def _reference_output_port(topology, current, destination):
    """Output port from the topology's structure hooks, without the table."""
    steps = {
        axis: 0
        if getattr(current, axis) == getattr(destination, axis)
        else topology.axis_step(current, destination, axis)
        for axis in ("x", "y")
    }
    for axis in topology.routing.axes:
        if steps[axis] > 0:
            return Port.XPLUS if axis == "x" else Port.YPLUS
        if steps[axis] < 0:
            return Port.XMINUS if axis == "x" else Port.YMINUS
    return Port.LOCAL


@SETTINGS
@given(topology_and_endpoints())
def test_next_port_table_matches_output_port_for_every_pair(case):
    """The routers' next-port table, Topology.output_port and the routing
    definition agree for every (node, destination) pair."""
    topology, _, _ = case
    nodes = list(topology.nodes())
    for node in nodes:
        row = topology.next_port_row(node)
        assert len(row) == topology.num_nodes
        for destination in nodes:
            port = row[topology.node_id(destination)]
            assert port is topology.output_port(node, destination)
            assert port is _reference_output_port(topology, node, destination)


@SETTINGS
@given(topology_and_endpoints())
def test_self_route_is_a_single_local_hop(case):
    topology, source, _ = case
    assert topology.route(source, source) == topology.route(source, source)
    hops = topology.route(source, source)
    assert len(hops) == 1
    assert hops[0].in_port is Port.LOCAL and hops[0].out_port is Port.LOCAL
