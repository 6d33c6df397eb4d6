from pathlib import Path

import numpy as np
import pytest

from cequil.tntp import (
    CountMismatch,
    MissingMetadata,
    NonNumericField,
    RowArity,
    TntpError,
    build_incidence,
    parse_net,
    serialize_net,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def siouxfalls():
    return parse_net((DATA / "siouxfalls_net.tntp").read_text())


def test_siouxfalls_counts(siouxfalls):
    assert siouxfalls.num_nodes == 24
    assert siouxfalls.num_links == 76
    assert siouxfalls.first_thru_node == 1
    assert len(siouxfalls.links) == 76


def test_siouxfalls_first_row(siouxfalls):
    rec = siouxfalls.links[0]
    assert rec.init_node == 1
    assert rec.term_node == 2
    assert rec.capacity == pytest.approx(25900.20064)
    assert rec.free_flow_time == 6.0
    assert rec.b == 0.15
    assert rec.power == 4.0


def test_roundtrip(siouxfalls):
    text = serialize_net(siouxfalls)
    again = parse_net(text)
    assert again == siouxfalls
    # and a second serialization is byte-identical
    assert serialize_net(again) == text


def test_count_mismatch():
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n1 2 1 1 1 0.15 4 0 0 1 ;\n"
    with pytest.raises(CountMismatch):
        parse_net(text)


def test_missing_metadata():
    with pytest.raises(MissingMetadata) as exc:
        parse_net("<NUMBER OF NODES> 2\n<END OF METADATA>\n")
    assert exc.value.tag == "NUMBER OF LINKS"


def test_row_arity():
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 1 1 ;\n"
    with pytest.raises(RowArity) as exc:
        parse_net(text)
    assert exc.value.line_number == 4


def test_non_numeric_field():
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 abc 1 1 0.15 4 0 0 1 ;\n"
    with pytest.raises(NonNumericField) as exc:
        parse_net(text)
    assert exc.value.column == 3


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
    assert net.links[0].capacity == 1.5
    assert net.metadata["SOME UNKNOWN TAG"] == "kept"


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
    with pytest.raises(Exception):
        parse_net(base + "1 1 1 1 1 0.15 4 0 0 1 ;\n")  # self loop
    with pytest.raises(Exception):
        parse_net(base + "1 2 0 1 1 0.15 4 0 0 1 ;\n")  # zero capacity
    with pytest.raises(Exception):
        parse_net(base + "1 3 1 1 1 0.15 4 0 0 1 ;\n")  # node id out of range
