"""TNTP network files, read into per-link arrays.

The format is the plain-text convention used by the Transportation Networks
for Research repository: metadata lines ``<TAG> value``, an
``<END OF METADATA>`` sentinel, ``~``-prefixed comment lines, then one
whitespace-separated row per link terminated by ``;`` with ten numeric
fields (init_node, term_node, capacity, length, free_flow_time, b, power,
speed, toll, link_type).

:func:`parse_net` checks every row and keeps the six columns the game reads
as a :class:`NetworkData`; length, speed, toll and link type are checked
and dropped.  Every problem raises :class:`TntpError`, whose message names
the line and column or the link at fault.  Node ids are 1-based in files;
:func:`build_incidence` converts to 0-based array indexing at this module's
boundary.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

__all__ = [
    "NetworkData",
    "TntpError",
    "parse_net",
    "build_incidence",
]


class TntpError(ValueError):
    """A malformed TNTP file or an invalid network."""


@dataclass(frozen=True, eq=False)
class NetworkData:
    """A directed network as read-only per-link arrays in file order.

    ``init_node`` and ``term_node`` are the 1-based tail and head of each
    link, as ints; ``capacity``, ``free_flow_time`` and the BPR columns
    ``b`` and ``power`` are floats.  Nodes numbered below
    ``first_thru_node`` are zones.  Construction checks what every link
    must satisfy, so a network built directly is checked like a parsed one:
    both counts are integers of at least 1 (kept as Python ints), the
    columns are 1-D and equally long with at least one link, node ids are
    integral and in ``[1, num_nodes]``, no link is a self-loop, capacities
    are positive and free-flow times nonnegative.
    A violation raises :class:`TntpError`.
    """

    num_nodes: int
    first_thru_node: int
    init_node: np.ndarray
    term_node: np.ndarray
    capacity: np.ndarray
    free_flow_time: np.ndarray
    b: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        for name, tag in (("num_nodes", "NUMBER OF NODES"),
                          ("first_thru_node", "FIRST THRU NODE")):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise TntpError(f"<{tag}> must be an integer, got {value!r}") from None
            if value < 1:
                raise TntpError(f"<{tag}> must be at least 1, got {value}")
            object.__setattr__(self, name, value)
        names = ("init_node", "term_node", "capacity", "free_flow_time", "b", "power")
        cols = {name: np.array(getattr(self, name), dtype=float) for name in names}
        if len({col.shape for col in cols.values()}) != 1 or cols["b"].ndim != 1:
            raise TntpError("link columns must be 1-D and of equal length")
        if cols["b"].size == 0:
            raise TntpError("<NUMBER OF LINKS> must be at least 1, got 0")
        ends = np.column_stack([cols["init_node"], cols["term_node"]]).ravel()
        fractional = ~np.isfinite(ends) | (ends != np.floor(ends))
        if fractional.any():
            raise TntpError(f"non-integer node id {float(ends[fractional][0])!r}")
        outside = (ends < 1) | (ends > self.num_nodes)
        if outside.any():
            raise TntpError(f"node id {int(ends[outside][0])} outside [1, {self.num_nodes}]")
        for name in ("init_node", "term_node"):
            cols[name] = cols[name].astype(int)
        tail, head = cols["init_node"], cols["term_node"]
        # the first link at fault, named by its first failed check
        bad = ~(cols["capacity"] > 0) | (cols["free_flow_time"] < 0) | (tail == head)
        if bad.any():
            k = int(np.argmax(bad))
            link = f"link {tail[k]}->{head[k]}"
            if not cols["capacity"][k] > 0:
                raise TntpError(f"{link}: capacity must be positive")
            if cols["free_flow_time"][k] < 0:
                raise TntpError(f"{link}: negative free-flow time")
            raise TntpError(f"self-loop at node {tail[k]}")
        for name, col in cols.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @property
    def num_links(self) -> int:
        return self.init_node.size


_NUM_FIELDS = 10


def parse_net(text: str) -> NetworkData:
    """Parse TNTP network text into :class:`NetworkData`.

    Tolerates blank lines, ``~`` comments anywhere, and arbitrary
    whitespace.  Metadata tags match case-insensitively and the first of
    repeated tags wins; tags other than the node and link counts and
    ``<FIRST THRU NODE>`` (1 when absent) are ignored.  Every row must
    carry ten finite numbers, the first two integral.
    """
    metadata: Dict[str, str] = {}
    rows: List[List[float]] = []
    in_body = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("~", 1)[0].strip()
        if not line:
            continue
        if not in_body and line.startswith("<"):
            end = line.find(">")
            if end < 0:
                raise TntpError(f"line {lineno}: unterminated metadata tag")
            tag = line[1:end].strip().upper()
            if tag == "END OF METADATA":
                in_body = True
            else:
                metadata.setdefault(tag, line[end + 1:].strip())
            continue
        tokens = line.rstrip(";").split()
        if not tokens:
            continue
        if len(tokens) != _NUM_FIELDS:
            raise TntpError(f"line {lineno}: expected {_NUM_FIELDS} link fields, "
                            f"got {len(tokens)}")
        values = []
        for col, tok in enumerate(tokens, start=1):
            try:
                value = float(tok)
            except ValueError:
                raise TntpError(f"line {lineno}, column {col}: non-numeric field {tok!r}") from None
            if not np.isfinite(value):
                raise TntpError(f"line {lineno}, column {col}: non-finite field {tok!r}")
            if col <= 2 and not value.is_integer():
                raise TntpError(f"line {lineno}, column {col}: non-integer node id {tok!r}")
            values.append(value)
        rows.append(values)

    def _metadata_int(tag: str, default=None) -> int:
        val = metadata.get(tag, default)
        if val is None:
            raise TntpError(f"missing metadata tag <{tag}>")
        try:
            return int(val)
        except ValueError:
            raise TntpError(f"metadata <{tag}> is not an integer: {val!r}") from None

    num_nodes = _metadata_int("NUMBER OF NODES")
    num_links = _metadata_int("NUMBER OF LINKS")
    if num_links != len(rows):
        raise TntpError(f"metadata declares {num_links} links but file has {len(rows)}")
    first_thru = _metadata_int("FIRST THRU NODE", "1")
    # columns: init, term, capacity, length, fft, b, power, speed, toll, type
    cols = np.array(rows, dtype=float).reshape(-1, _NUM_FIELDS).T
    return NetworkData(num_nodes, first_thru, cols[0], cols[1], cols[2], cols[4],
                       cols[5], cols[6])


def build_incidence(net: NetworkData) -> np.ndarray:
    """Node-link incidence matrix, num_nodes x num_links.

    Column k carries +1 at the (0-based) tail of link k and -1 at its head,
    so every column sums to zero.
    """
    E = np.zeros((net.num_nodes, net.num_links))
    links = np.arange(net.num_links)
    E[net.init_node - 1, links] = 1.0
    E[net.term_node - 1, links] = -1.0
    return E
