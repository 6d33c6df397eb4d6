from pathlib import Path

import numpy as np
import pytest

from cequil.tntp import NetworkData, TntpError, build_incidence, parse_net

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def siouxfalls():
    return parse_net((DATA / "siouxfalls_net.tntp").read_text())


def test_siouxfalls_counts(siouxfalls):
    assert siouxfalls.num_nodes == 24
    assert siouxfalls.num_links == 76
    assert siouxfalls.first_thru_node == 1
    for col in (siouxfalls.init_node, siouxfalls.term_node, siouxfalls.capacity,
                siouxfalls.free_flow_time, siouxfalls.b, siouxfalls.power):
        assert col.shape == (76,)


def test_siouxfalls_first_row(siouxfalls):
    net = siouxfalls
    assert net.init_node[0] == 1 and net.init_node.dtype.kind == "i"
    assert net.term_node[0] == 2 and net.term_node.dtype.kind == "i"
    assert net.capacity[0] == pytest.approx(25900.20064)
    assert net.free_flow_time[0] == 6.0
    assert net.b[0] == 0.15
    assert net.power[0] == 4.0


def test_count_mismatch():
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n1 2 1 1 1 0.15 4 0 0 1 ;\n"
    with pytest.raises(TntpError, match="metadata declares 2 links but file has 1"):
        parse_net(text)


def test_missing_metadata():
    with pytest.raises(TntpError, match="missing metadata tag <NUMBER OF LINKS>"):
        parse_net("<NUMBER OF NODES> 2\n<END OF METADATA>\n")


@pytest.mark.parametrize("value", [0, -2])
def test_first_thru_node_below_one_rejected(value):
    text = (DATA / "toy4_net.tntp").read_text().replace(
        "<FIRST THRU NODE> 1", f"<FIRST THRU NODE> {value}")
    with pytest.raises(TntpError, match=f"<FIRST THRU NODE> must be at least 1, got {value}"):
        parse_net(text)


def test_no_nodes_rejected():
    # a network without nodes parsed and built an empty incidence matrix
    with pytest.raises(TntpError, match="<NUMBER OF NODES> must be at least 1, got 0"):
        parse_net("<NUMBER OF NODES> 0\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n")


def test_no_links_rejected():
    # a network without links parsed, and build_traffic_game then failed on
    # a polyhedron without coordinates
    with pytest.raises(TntpError, match="<NUMBER OF LINKS> must be at least 1, got 0"):
        parse_net("<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n")


def test_row_arity():
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 1 1 ;\n"
    with pytest.raises(TntpError, match="line 4: expected 10 link fields, got 4"):
        parse_net(text)


def test_non_numeric_field():
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 abc 1 1 0.15 4 0 0 1 ;\n"
    with pytest.raises(TntpError, match="line 4, column 3: non-numeric field 'abc'"):
        parse_net(text)


@pytest.mark.parametrize("token", ["nan", "inf"])
@pytest.mark.parametrize("column", range(1, 11))
def test_non_finite_field(column, token):
    fields = "1 2 1 1 1 0.15 4 0 0 1".split()
    fields[column - 1] = token
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n" + " ".join(fields) + " ;\n"
    with pytest.raises(TntpError, match=f"column {column}: non-finite"):
        parse_net(text)


@pytest.mark.parametrize("column", [1, 2])
def test_non_integer_node_id(column):
    fields = "1 2 1 1 1 0.15 4 0 0 1".split()
    fields[column - 1] = "1.7"
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n" + " ".join(fields) + " ;\n"
    with pytest.raises(TntpError, match=f"line 4, column {column}: non-integer node id '1.7'"):
        parse_net(text)


def test_whitespace_and_comments_tolerated():
    text = (
        "\n~ a leading comment\n"
        "<NUMBER OF NODES> 2\n\n"
        "  <NUMBER OF LINKS> 1\n"
        "<SOME UNKNOWN TAG> kept\n"
        "<END OF METADATA>\n"
        "~ header comment\n"
        "\n"
        "  1   2\t1.5  2  2  0.15 4 0 0 1 ;  ~ trailing comment\n"
    )
    net = parse_net(text)
    assert net.num_links == 1
    assert net.capacity[0] == 1.5


def test_semicolon_only_line_skipped():
    text = ("<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n"
            ";\n  ;  \n1 2 1 1 1 0.15 4 0 0 1 ;\n;\n")
    net = parse_net(text)
    assert net.num_links == 1
    assert (net.init_node.tolist(), net.term_node.tolist()) == ([1], [2])


def test_incidence_single_link():
    net = parse_net(
        "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 1 1 1 0.15 4 0 0 1 ;\n"
    )
    E = build_incidence(net)
    assert E.shape == (2, 1)
    assert E[0, 0] == 1.0 and E[1, 0] == -1.0


def test_incidence_antiparallel():
    net = parse_net(
        "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n"
        "1 2 1 1 1 0.15 4 0 0 1 ;\n2 1 1 1 1 0.15 4 0 0 1 ;\n"
    )
    E = build_incidence(net)
    assert np.array_equal(E[:, 0], [1.0, -1.0])
    assert np.array_equal(E[:, 1], [-1.0, 1.0])


def test_incidence_column_properties(siouxfalls):
    E = build_incidence(siouxfalls)
    assert E.shape == (24, 76)
    assert np.array_equal(E.sum(axis=0), np.zeros(76))
    assert np.array_equal(np.abs(E).sum(axis=0), np.full(76, 2.0))


def test_bad_link_records():
    base = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n"
    with pytest.raises(TntpError, match="self-loop at node 1"):
        parse_net(base + "1 1 1 1 1 0.15 4 0 0 1 ;\n")
    with pytest.raises(TntpError, match="link 1->2: capacity must be positive"):
        parse_net(base + "1 2 0 1 1 0.15 4 0 0 1 ;\n")
    with pytest.raises(TntpError, match=r"node id 3 outside \[1, 2\]"):
        parse_net(base + "1 3 1 1 1 0.15 4 0 0 1 ;\n")
    with pytest.raises(TntpError, match="link 1->2: negative free-flow time"):
        parse_net(base + "1 2 1 1 -1 0.15 4 0 0 1 ;\n")


def test_malformed_metadata():
    with pytest.raises(TntpError, match="line 1: unterminated metadata tag"):
        parse_net("<NUMBER OF NODES 2\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n")
    with pytest.raises(TntpError, match="<NUMBER OF NODES> is not an integer: '2.5'"):
        parse_net("<NUMBER OF NODES> 2.5\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n")


def test_first_of_repeated_tags_wins():
    text = ("<NUMBER OF NODES> 2\n<number of nodes> 5\n<NUMBER OF NODES> 7\n"
            "<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 1 1 1 0.15 4 0 0 1 ;\n")
    assert parse_net(text).num_nodes == 2


def test_incidence_parallel_links():
    net = parse_net(
        "<NUMBER OF NODES> 3\n<NUMBER OF LINKS> 3\n<END OF METADATA>\n"
        "1 2 1 1 1 0.15 4 0 0 1 ;\n1 2 2 1 3 0.15 4 0 0 1 ;\n2 3 1 1 1 0.15 4 0 0 1 ;\n"
    )
    E = build_incidence(net)
    assert np.array_equal(E[:, 0], [1.0, -1.0, 0.0])
    assert np.array_equal(E[:, 1], E[:, 0])


def direct_network(**columns):
    """A two-node, one-link network built without the parser, with
    ``columns`` replacing the link 1->2's defaults."""
    link = dict(init_node=[1], term_node=[2], capacity=[1.0], free_flow_time=[1.0],
                b=[0.15], power=[4.0])
    link.update(columns)
    return NetworkData(2, 1, **link)


class TestDirectNetwork:
    # a network built from arrays is checked like a parsed one

    def test_valid(self):
        net = direct_network()
        assert net.num_links == 1
        assert net.init_node.dtype.kind == "i" and net.capacity.dtype == np.float64

    @pytest.mark.parametrize("columns, message", [
        ({"init_node": [1.7]}, "non-integer node id 1.7"),
        ({"term_node": [np.nan]}, "non-integer node id nan"),
        ({"capacity": [0.0]}, "link 1->2: capacity must be positive"),
        ({"free_flow_time": [-1.0]}, "link 1->2: negative free-flow time"),
        ({"term_node": [1]}, "self-loop at node 1"),
        ({"term_node": [3]}, r"node id 3 outside \[1, 2\]"),
        ({"init_node": [0]}, r"node id 0 outside \[1, 2\]"),
        ({"b": [0.15, 0.15]}, "link columns must be 1-D and of equal length"),
        ({"b": 0.15}, "link columns must be 1-D and of equal length"),
    ])
    def test_invalid_link_rejected(self, columns, message):
        with pytest.raises(TntpError, match=message):
            direct_network(**columns)

    @pytest.mark.parametrize("counts, message", [
        ((2.5, 1), "<NUMBER OF NODES> must be an integer, got 2.5"),
        ((2, 1.5), "<FIRST THRU NODE> must be an integer, got 1.5"),
    ])
    def test_non_integer_count_rejected(self, counts, message):
        with pytest.raises(TntpError, match=message):
            NetworkData(*counts, [1], [2], [1.0], [1.0], [0.15], [4.0])

    @pytest.mark.parametrize("num_nodes", [-1, 0])
    def test_node_count_below_one_rejected(self, num_nodes):
        # -1 used to reach build_incidence, where numpy refused the shape
        message = f"<NUMBER OF NODES> must be at least 1, got {num_nodes}"
        with pytest.raises(TntpError, match=message):
            NetworkData(num_nodes, 1, [], [], [], [], [], [])

    def test_no_links_rejected(self):
        with pytest.raises(TntpError, match="<NUMBER OF LINKS> must be at least 1, got 0"):
            NetworkData(2, 1, [], [], [], [], [], [])

    def test_numpy_integer_counts_kept_as_ints(self):
        net = NetworkData(np.int64(2), np.int64(1), [1], [2], [1.0], [1.0], [0.15], [4.0])
        assert type(net.num_nodes) is int and type(net.first_thru_node) is int
        assert build_incidence(net).shape == (2, 1)

    def test_first_link_at_fault_is_named(self):
        with pytest.raises(TntpError, match="link 2->1: negative free-flow time"):
            NetworkData(2, 1, [1, 2, 2], [2, 1, 1], [1.0, 1.0, 0.0], [1.0, -1.0, 1.0],
                        [0.15] * 3, [4.0] * 3)

    def test_arrays_are_read_only_copies(self):
        capacity = np.array([1.0])
        net = direct_network(capacity=capacity)
        capacity[0] = 5.0
        assert net.capacity[0] == 1.0
        for col in (net.init_node, net.term_node, net.capacity, net.free_flow_time,
                    net.b, net.power):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 2
