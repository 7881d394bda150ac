"""Text file formats (DIMACS-style, 1-based vertex indices) for graphs,
hypergraphs and positive DNFs, plus read-only graph6 decoding for external
test corpora.
"""

from __future__ import annotations

from .boolean import PositiveDNF, make_dnf
from .graphs import Graph
from .hypergraphs import Hypergraph


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


def _parse_header(line_no: int, line: str, kind: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != kind:
        raise ParseError(line_no, f"expected header 'p {kind} <n> <m>', got {line!r}")
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(line_no, "header counts must be integers") from None
    if n < 0 or m < 0:
        raise ParseError(line_no, "header counts must be non-negative")
    return n, m


def parse_graph(text: str) -> Graph:
    """Parse the 'p graph <n> <m>' format with 'e <u> <v>' edge lines,
    1-based with u < v; '#' starts a comment."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(0, "empty input")
    line_no, header = lines[0]
    n, m = _parse_header(line_no, header, "graph")
    if len(lines) - 1 != m:
        raise ParseError(line_no, f"header announces {m} edges, found {len(lines) - 1}")
    edges = []
    for line_no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError(line_no, f"expected 'e <u> <v>', got {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(line_no, "edge endpoints must be integers") from None
        if not 1 <= u < v <= n:
            raise ParseError(line_no, f"edge must satisfy 1 <= u < v <= {n}")
        edges.append((u - 1, v - 1))
    return Graph.from_edges(n, edges)


def write_graph(G: Graph) -> str:
    edges = G.edges()
    out = [f"p graph {G.n} {len(edges)}"]
    out += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(out) + "\n"


def _parse_set_lines(text: str, kind: str, keyword: str, sets: str, members: str):
    """The order and the 0-based member lists of the 'p <kind> <n> <m>'
    format with '<keyword> <v1> ...' lines; ``sets`` and ``members`` name
    the lines and their entries in error messages."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(0, "empty input")
    line_no, header = lines[0]
    n, m = _parse_header(line_no, header, kind)
    if len(lines) - 1 != m:
        raise ParseError(line_no, f"header announces {m} {sets}, found {len(lines) - 1}")
    family = []
    for line_no, line in lines[1:]:
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise ParseError(line_no, f"expected '{keyword} <v1> ...', got {line!r}")
        try:
            vertices = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(line_no, f"{members} must be integers") from None
        if any(not 1 <= v <= n for v in vertices):
            raise ParseError(line_no, f"{members} must be in 1..{n}")
        family.append([v - 1 for v in vertices])
    return n, family


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the 'p hgraph <n> <m>' format with 'h <v1> <v2> ...' edge lines
    (possibly empty after 'h')."""
    return Hypergraph.make(*_parse_set_lines(text, "hgraph", "h", "edges", "edge members"))


def write_hypergraph(H: Hypergraph) -> str:
    out = [f"p hgraph {H.n} {len(H.edges)}"]
    for e in H.edges:
        out.append(("h " + " ".join(str(v + 1) for v in sorted(e))).rstrip())
    return "\n".join(out) + "\n"


def parse_dnf(text: str) -> PositiveDNF:
    """Parse the 'p dnf <n> <m>' format with 'i <v1> ...' implicant lines
    (empty after 'i' is the empty implicant); terms are minimized to the
    complete DNF."""
    return make_dnf(*_parse_set_lines(text, "dnf", "i", "terms", "term variables"))


def write_dnf(f: PositiveDNF) -> str:
    out = [f"p dnf {f.n} {len(f.implicants)}"]
    for t in f.implicants:
        out.append(("i " + " ".join(str(v + 1) for v in sorted(t))).rstrip())
    return "\n".join(out) + "\n"


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    data = [ord(ch) - 63 for ch in s]
    if any(not 0 <= b < 64 for b in data):
        raise ValueError("graph6 bytes must be in the printable range 63..126")
    if not data:
        raise ValueError("empty graph6 input")
    if data[0] <= 62:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        body = data[8:]
    else:
        raise ValueError("truncated graph6 size field")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 body length does not match vertex count")
    bits = []
    for b in body:
        bits += [(b >> shift) & 1 for shift in range(5, -1, -1)]
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)
