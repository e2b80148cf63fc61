"""Unit and property tests for :mod:`repro.geometry`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DIRECTION_PORTS, Coord, Mesh, Port

# ----------------------------------------------------------------------
# Coord
# ----------------------------------------------------------------------
class TestCoord:
    def test_fields_and_iteration(self):
        c = Coord(3, 5)
        assert c.x == 3 and c.y == 5
        assert tuple(c) == (3, 5)

    def test_equality_and_hashing(self):
        assert Coord(1, 2) == Coord(1, 2)
        assert Coord(1, 2) != Coord(2, 1)
        assert len({Coord(1, 2), Coord(1, 2), Coord(2, 1)}) == 2

    def test_manhattan_distance(self):
        assert Coord(0, 0).manhattan(Coord(3, 4)) == 7
        assert Coord(2, 2).manhattan(Coord(2, 2)) == 0
        assert Coord(5, 1).manhattan(Coord(1, 5)) == 8

    def test_manhattan_is_symmetric(self):
        a, b = Coord(1, 7), Coord(4, 2)
        assert a.manhattan(b) == b.manhattan(a)

    def test_offset(self):
        assert Coord(1, 1).offset(2, -1) == Coord(3, 0)

    @given(
        x1=st.integers(0, 20), y1=st.integers(0, 20),
        x2=st.integers(0, 20), y2=st.integers(0, 20),
        x3=st.integers(0, 20), y3=st.integers(0, 20),
    )
    def test_manhattan_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Coord(x1, y1), Coord(x2, y2), Coord(x3, y3)
        assert a.manhattan(c) <= a.manhattan(b) + b.manhattan(c)


# ----------------------------------------------------------------------
# Port
# ----------------------------------------------------------------------
class TestPort:
    def test_local_flag(self):
        assert Port.LOCAL.is_local
        assert not Port.XPLUS.is_local

    def test_axes(self):
        assert Port.XPLUS.axis == "x"
        assert Port.XMINUS.axis == "x"
        assert Port.YPLUS.axis == "y"
        assert Port.YMINUS.axis == "y"
        assert Port.LOCAL.axis is None

    def test_direction_ports_exclude_local(self):
        assert Port.LOCAL not in DIRECTION_PORTS
        assert len(DIRECTION_PORTS) == 4

    def test_paper_naming(self):
        # The value strings follow the paper's notation.
        assert Port.LOCAL.value == "PME"
        assert Port.XPLUS.value == "X+"

    @pytest.mark.parametrize("port", list(Port))
    def test_pickle_round_trip_keeps_identity_and_dict_lookup(self, port):
        # Ports hash by identity; multi-process Monte-Carlo ships them to
        # workers, so unpickling must return the very same member.
        import pickle

        restored = pickle.loads(pickle.dumps(port))
        assert restored is port
        assert hash(restored) == hash(port)
        assert {p: p.value for p in Port}[restored] == port.value
        assert pickle.loads(pickle.dumps({port: 1}))[port] == 1


# ----------------------------------------------------------------------
# Mesh
# ----------------------------------------------------------------------
class TestMesh:
    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Mesh(0, 4)
        with pytest.raises(ValueError):
            Mesh(4, -1)

    def test_node_enumeration(self):
        mesh = Mesh(3, 2)
        nodes = list(mesh.nodes())
        assert len(nodes) == 6 == mesh.num_nodes
        assert nodes[0] == Coord(0, 0)
        assert nodes[-1] == Coord(2, 1)

    def test_contains_and_require(self):
        mesh = Mesh(2, 2)
        assert mesh.contains(Coord(1, 1))
        assert not mesh.contains(Coord(2, 0))
        with pytest.raises(ValueError):
            mesh.require(Coord(-1, 0))

    def test_node_id_roundtrip(self):
        mesh = Mesh(5, 3)
        for node in mesh.nodes():
            assert mesh.coord_of(mesh.node_id(node)) == node

    def test_node_id_is_row_major(self):
        mesh = Mesh(4, 4)
        assert mesh.node_id(Coord(0, 0)) == 0
        assert mesh.node_id(Coord(3, 0)) == 3
        assert mesh.node_id(Coord(0, 1)) == 4

    def test_node_id_rejects_out_of_range(self):
        mesh = Mesh(2, 2)
        with pytest.raises(ValueError):
            mesh.coord_of(4)

    def test_downstream_follows_travel_direction(self):
        mesh = Mesh(4, 4)
        assert mesh.downstream(Coord(1, 1), Port.XPLUS) == Coord(2, 1)
        assert mesh.downstream(Coord(1, 1), Port.XMINUS) == Coord(0, 1)
        assert mesh.downstream(Coord(1, 1), Port.YPLUS) == Coord(1, 2)
        assert mesh.downstream(Coord(1, 1), Port.YMINUS) == Coord(1, 0)
        assert mesh.downstream(Coord(1, 1), Port.LOCAL) is None

    def test_downstream_none_at_edges(self):
        mesh = Mesh(3, 3)
        assert mesh.downstream(Coord(2, 1), Port.XPLUS) is None
        assert mesh.downstream(Coord(0, 0), Port.XMINUS) is None
        assert mesh.downstream(Coord(1, 2), Port.YPLUS) is None
        assert mesh.downstream(Coord(1, 0), Port.YMINUS) is None

    def test_upstream_is_inverse_of_downstream(self):
        mesh = Mesh(4, 3)
        for coord in mesh.nodes():
            for port in DIRECTION_PORTS:
                nxt = mesh.downstream(coord, port)
                if nxt is not None:
                    # Travel-direction naming: the downstream router's input
                    # port of the same name is fed by this router.
                    assert mesh.upstream(nxt, port) == coord

    def test_corner_port_lists(self):
        mesh = Mesh(4, 4)
        corner_outputs = mesh.output_ports(Coord(0, 0))
        assert set(corner_outputs) == {Port.LOCAL, Port.XPLUS, Port.YPLUS}
        corner_inputs = mesh.input_ports(Coord(0, 0))
        assert set(corner_inputs) == {Port.LOCAL, Port.XMINUS, Port.YMINUS}

    def test_interior_router_has_all_ports(self):
        mesh = Mesh(4, 4)
        assert len(mesh.output_ports(Coord(1, 2))) == 5
        assert len(mesh.input_ports(Coord(2, 1))) == 5

    def test_links_count(self):
        # A WxH mesh has 2*(W-1)*H + 2*W*(H-1) directed inter-router links.
        mesh = Mesh(4, 3)
        expected = 2 * 3 * 3 + 2 * 4 * 2
        assert len(list(mesh.links())) == expected

    def test_links_connect_neighbours(self):
        mesh = Mesh(3, 3)
        for src, port, dst in mesh.links():
            assert src.manhattan(dst) == 1
            assert mesh.downstream(src, port) == dst

    @given(w=st.integers(1, 8), h=st.integers(1, 8))
    @settings(max_examples=30)
    def test_port_existence_is_consistent(self, w, h):
        mesh = Mesh(w, h)
        for coord in mesh.nodes():
            for port in DIRECTION_PORTS:
                has_output = mesh.downstream(coord, port) is not None
                assert (port in mesh.output_ports(coord)) == has_output
                has_input = mesh.upstream(coord, port) is not None
                assert (port in mesh.input_ports(coord)) == has_input

    def test_single_node_mesh(self):
        mesh = Mesh(1, 1)
        assert mesh.num_nodes == 1
        assert mesh.output_ports(Coord(0, 0)) == [Port.LOCAL]
