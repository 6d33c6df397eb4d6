"""Parser for TNTP-format network files.

The format is the plain-text convention used by the Transportation Networks
for Research repository: metadata lines ``<TAG> value``, an
``<END OF METADATA>`` sentinel, ``~``-prefixed comment lines, then one
whitespace-separated row per link terminated by ``;`` with fields
(init_node, term_node, capacity, length, free_flow_time, b, power, speed,
toll, link_type).

Node ids are 1-based in files; :func:`build_incidence` converts to 0-based
array indexing at this module's boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = [
    "LinkRecord",
    "NetworkData",
    "TntpError",
    "MissingMetadata",
    "RowArity",
    "CountMismatch",
    "NonNumericField",
    "parse_net",
    "serialize_net",
    "build_incidence",
]


class TntpError(ValueError):
    """Base class for TNTP parsing problems."""


class MissingMetadata(TntpError):
    def __init__(self, tag: str):
        super().__init__(f"missing metadata tag <{tag}>")
        self.tag = tag


class RowArity(TntpError):
    def __init__(self, line_number: int, got: int):
        super().__init__(f"line {line_number}: expected 10 link fields, got {got}")
        self.line_number = line_number


class CountMismatch(TntpError):
    def __init__(self, declared: int, parsed: int):
        super().__init__(f"metadata declares {declared} links but file has {parsed}")
        self.declared = declared
        self.parsed = parsed


class NonNumericField(TntpError):
    def __init__(self, line_number: int, column: int, token: str):
        super().__init__(f"line {line_number}, column {column}: non-numeric field {token!r}")
        self.line_number = line_number
        self.column = column


@dataclass(frozen=True)
class LinkRecord:
    """One directed link row; node ids are 1-based as in the file."""

    init_node: int
    term_node: int
    capacity: float
    length: float
    free_flow_time: float
    b: float
    power: float
    speed: float
    toll: float
    link_type: float

    def __post_init__(self):
        if self.capacity <= 0:
            raise TntpError(f"link {self.init_node}->{self.term_node}: capacity must be positive")
        if self.free_flow_time < 0:
            raise TntpError(f"link {self.init_node}->{self.term_node}: negative free-flow time")
        if self.init_node == self.term_node:
            raise TntpError(f"self-loop at node {self.init_node}")


@dataclass(frozen=True)
class NetworkData:
    num_nodes: int
    num_links: int
    first_thru_node: int
    links: List[LinkRecord]
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.links) != self.num_links:
            raise CountMismatch(self.num_links, len(self.links))
        for rec in self.links:
            for node in (rec.init_node, rec.term_node):
                if not 1 <= node <= self.num_nodes:
                    raise TntpError(f"node id {node} outside [1, {self.num_nodes}]")

    def capacities(self) -> np.ndarray:
        return np.array([rec.capacity for rec in self.links])

    def free_flow_times(self) -> np.ndarray:
        return np.array([rec.free_flow_time for rec in self.links])


_FIELDS = ("init_node", "term_node", "capacity", "length", "free_flow_time",
           "b", "power", "speed", "toll", "link_type")


def parse_net(text: str) -> NetworkData:
    """Parse TNTP network text into :class:`NetworkData`.

    Tolerates blank lines, ``~`` comments anywhere, and arbitrary
    whitespace.  Unknown metadata tags are preserved in
    ``NetworkData.metadata`` but otherwise ignored.
    """
    metadata: Dict[str, str] = {}
    rows: List[LinkRecord] = []
    in_body = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("~", 1)[0].strip()
        if not line:
            continue
        if not in_body and line.startswith("<"):
            end = line.find(">")
            if end < 0:
                raise TntpError(f"line {lineno}: unterminated metadata tag")
            tag = line[1:end].strip()
            value = line[end + 1:].strip()
            if tag.upper() == "END OF METADATA":
                in_body = True
            else:
                metadata[tag] = value
            continue
        tokens = line.rstrip(";").split()
        if not tokens:
            continue
        if len(tokens) != len(_FIELDS):
            raise RowArity(lineno, len(tokens))
        values = []
        for col, tok in enumerate(tokens, start=1):
            try:
                value = float(tok)
            except ValueError:
                raise NonNumericField(lineno, col, tok) from None
            if not np.isfinite(value):
                raise TntpError(f"line {lineno}, column {col}: non-finite field {tok!r}")
            if col <= 2 and not value.is_integer():
                raise TntpError(f"line {lineno}, column {col}: non-integer node id {tok!r}")
            values.append(value)
        rows.append(LinkRecord(int(values[0]), int(values[1]), *values[2:]))

    def _require_int(tag: str) -> int:
        for key, val in metadata.items():
            if key.upper() == tag:
                try:
                    return int(val)
                except ValueError:
                    raise TntpError(f"metadata <{tag}> is not an integer: {val!r}") from None
        raise MissingMetadata(tag)

    num_nodes = _require_int("NUMBER OF NODES")
    num_links = _require_int("NUMBER OF LINKS")
    try:
        first_thru = _require_int("FIRST THRU NODE")
    except MissingMetadata:
        first_thru = 1
    return NetworkData(num_nodes, num_links, first_thru, rows, metadata)


def serialize_net(net: NetworkData) -> str:
    """Render NetworkData back to TNTP text; parse_net round-trips it."""
    out = [f"<NUMBER OF NODES> {net.num_nodes}",
           f"<NUMBER OF LINKS> {net.num_links}",
           f"<FIRST THRU NODE> {net.first_thru_node}"]
    skip = {"NUMBER OF NODES", "NUMBER OF LINKS", "FIRST THRU NODE"}
    for key, val in net.metadata.items():
        if key.upper() not in skip:
            out.append(f"<{key}> {val}")
    out.append("<END OF METADATA>")
    out.append("~ init term capacity length fft b power speed toll type ;")
    for rec in net.links:
        nums = " ".join(repr(getattr(rec, f)) for f in _FIELDS[2:])
        out.append(f"{rec.init_node} {rec.term_node} {nums} ;")
    return "\n".join(out) + "\n"


def build_incidence(net: NetworkData) -> np.ndarray:
    """Node-link incidence matrix, num_nodes x num_links.

    Column k carries +1 at the (0-based) tail of link k and -1 at its head,
    so every column sums to zero.
    """
    E = np.zeros((net.num_nodes, net.num_links))
    for k, rec in enumerate(net.links):
        E[rec.init_node - 1, k] = 1.0
        E[rec.term_node - 1, k] = -1.0
    return E
