"""Parsers and writers for the on-disk formats.

Graph text format: a stream of whitespace-separated tokens, in which
lines matter only to rotation rows.  A graph is the header "n m", then
2m vertex ids, read in pairs as the edges u v with 0 <= u < v < n
(written one edge per line), then optional rotation rows
"rot v: u1 u2 ... uk", each ending at the end of its line and listing
the neighbours of v in some order, which attach a rotation to that
graph: a tuple of rows, row v the tuple (u1, ..., uk), and () for an
isolated vertex.  n is at most MAX_VERTICES and m at most n(n-1)/2,
both checked at the header, before anything is allocated for the graph
or any edge is read.  A # starts a comment that runs to the end of its
line.  A file may hold several graphs back to back.
The tokens are split once and the edge ids converted and checked in
bulk; the line and token of an error are worked out only once a
conversion or check has failed, and the error reported is the first
in reading order.

graph6 is accepted as an alternate encoding, one graph per line; lines
are detected as graph6 when they contain no whitespace and do not start
with a digit (graph6 bytes are all >= 63).

List assignments: lines "v: c1 c2 ... ck", one per vertex, in any
order.  Lines whose list text after the ':' is the same share one
frozenset.
"""

from __future__ import annotations

from operator import itemgetter, lt

from .errors import ParseError
from .graph_core import Graph

# The largest vertex count a text header may declare.  A graph costs one
# adjacency set per declared vertex, isolated or not, so without a bound
# the header "1000000000 0" alone would ask for tens of gigabytes.
MAX_VERTICES = 10**6


def _lines(text: str) -> list[str]:
    """The lines of text, each cut at its first #."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return lines


class _Tokens:
    """The tokens of a text stream, split once.

    Every line break is whitespace to str.split, so the tokens of the
    whole text are those of its lines in turn.  The line of a token is
    worked out only when asked for: to report an error, or to end a
    rotation row at the end of its line.
    """

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.toks = ("\n".join(_lines(text)) if "#" in text else text).split()
        self._lines: list[int] | None = None

    def line(self, i: int) -> int:
        if self._lines is None:
            self._lines = [no for no, line in enumerate(_lines(self.text), start=1) for _ in line.split()]
        return self._lines[i]

    def error(self, i: int, message: str, token: str | None = None) -> ParseError:
        return ParseError(self.source, self.line(i), self.toks[i] if token is None else token, message)

    def to_int(self, i: int, what: str) -> int:
        try:
            return int(self.toks[i])
        except ValueError:
            raise self.error(i, f"expected {what}") from None


def parse_graphs_text(text: str, source: str = "<text>") -> list[tuple[Graph, tuple | None]]:
    """Parse a text stream of one or more graphs with optional rotations.

    Errors are reported in reading order: the first bad token, or the
    first check to fail, raises a ParseError that names its line.
    """
    s = _Tokens(text, source)
    toks = s.toks
    out: list[tuple[Graph, tuple | None]] = []
    i = 0
    while i < len(toks):
        if toks[i] == "rot":
            raise s.error(i, "rotation line before any graph")
        n = s.to_int(i, "vertex count")
        if i + 1 >= len(toks):
            raise s.error(i, "missing edge count")
        m = s.to_int(i + 1, "edge count")
        if n < 0 or m < 0:
            raise s.error(i, "negative header value")
        if n > MAX_VERTICES:
            raise s.error(i, f"vertex count exceeds the limit of {MAX_VERTICES}")
        if m > n * (n - 1) // 2:
            raise s.error(i + 1, f"edge count exceeds n(n-1)/2 = {n * (n - 1) // 2}")
        edges = _edges(s, i + 2, n, m)
        try:
            g = Graph(n, edges)
        except ValueError as e:
            raise s.error(i, str(e)) from None
        header = i
        i += 2 + 2 * m
        rot = None
        if i < len(toks) and toks[i] == "rot":
            rot, i = _rotation(s, i, g, header)
        out.append((g, rot))
    return out


def _edges(s: _Tokens, start: int, n: int, m: int):
    """The m edges whose 2m ids start at token start.

    All ids are converted by one int() map and checked against
    0 <= u < v < n in one pass; only if that fails are the edges read
    one by one, to report the first bad one.
    """
    toks = s.toks
    have = min(m, (len(toks) - start) // 2)
    stop = start + 2 * have
    try:
        ids = list(map(int, toks[start:stop]))
        us, vs = ids[::2], ids[1::2]
        if ids and not (min(us) >= 0 and max(vs) < n and all(map(lt, us, vs))):
            raise ValueError
    except ValueError:
        for i in range(start, stop, 2):
            u, v = s.to_int(i, "vertex id"), s.to_int(i + 1, "vertex id")
            if not 0 <= u < v < n:
                raise s.error(i, f"edge must satisfy 0 <= u < v < {n}", f"{toks[i]} {toks[i + 1]}") from None
    if have < m:
        raise s.error(len(toks) - 1, f"expected {m} edges, got {have}")
    return zip(us, vs)


def _rotation(s: _Tokens, i: int, g: Graph, header: int) -> tuple[tuple, int]:
    """The rotation rows of the block of g that starts at token i, a
    "rot", and the index of the token after it.  A row "rot v: u1 ... uk"
    ends at the end of the line that holds "v:", and must list v's
    neighbours in some order; header is the index of g's "n"."""
    toks = s.toks
    n = g.n
    rows: dict[int, tuple[int, ...]] = {}
    while i < len(toks) and toks[i] == "rot":
        i += 1
        if i == len(toks):
            raise s.error(i - 1, "truncated rotation line")
        vtok = toks[i]
        if not vtok.endswith(":"):
            raise s.error(i, "rotation vertex must end with ':'")
        try:
            v = int(vtok[:-1])
        except ValueError:
            raise s.error(i, "expected vertex id", vtok[:-1]) from None
        if not 0 <= v < n:
            raise s.error(i, "rotation vertex out of range")
        row_line = s.line(i)
        i += 1
        first = i
        while i < len(toks) and s.line(i) == row_line and toks[i] != "rot":
            i += 1
        rows[v] = tuple(s.to_int(j, "neighbor id") for j in range(first, i))
        if tuple(sorted(rows[v])) != g.adj[v]:  # the test of planar_embed.check_rotation
            raise s.error(first - 1, f"rotation at vertex {v} does not match adjacency")
    missing = [v for v in range(n) if g.adj[v] and v not in rows]
    if missing:
        raise s.error(header, f"rotation missing vertices {_first_ten(missing)}", "rot")
    return tuple(rows.get(v, ()) for v in range(n)), i


def write_graph_text(g: Graph, rot: tuple | None = None) -> str:
    """Serialize one graph, and the rows of rot, if given, as rotation lines."""
    lines = [f"{g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    if rot is not None:
        for v in range(g.n):
            if rot[v]:
                lines.append(f"rot {v}: " + " ".join(str(u) for u in rot[v]))
    return "\n".join(lines) + "\n"


# graph6, per the standard 6-bit encoding

# Maps a 6-bit group to its graph6 byte.
_G6_BYTE = bytes((b + 63) & 255 for b in range(256))


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (n up to 258047).

    Bit u + v(v-1)/2 of the body is the pair u < v of the upper triangle,
    six bits to a byte, high bit first; the body is filled edge by edge,
    so memory is one byte per six vertex pairs.
    """
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError("graph too large for this graph6 writer")
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for v in range(n):
        for u in g.adj[v]:
            if u < v:
                bit = u + v * (v - 1) // 2
                body[bit // 6] |= 32 >> (bit % 6)
    return (head + body.translate(_G6_BYTE)).decode("ascii")


def from_graph6(line: str, source: str = "<g6>", lineno: int = 1) -> Graph:
    """Decode one graph6 line.

    The body is read byte by byte: zero bytes are skipped, and the pair
    (u, v) of the current bit u + v(v-1)/2 is advanced as the bits are
    found, so memory is O(n + m) beyond the line itself.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    data = s.encode("ascii", errors="replace")
    if not data:
        raise ParseError(source, lineno, line, "empty graph6 line")
    if min(data) < 63 or max(data) > 126:
        raise ParseError(source, lineno, s, "invalid graph6 byte")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ParseError(source, lineno, s, "graph6 n > 258047 unsupported")
        if len(data) < 4:
            raise ParseError(source, lineno, s, "truncated graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        start = 4
    else:
        n = data[0] - 63
        start = 1
    need = n * (n - 1) // 2
    if len(data) - start != (need + 5) // 6:
        raise ParseError(source, lineno, s, f"graph6 body length mismatch for n={n}")
    edges = []
    u, v, at = 0, 1, 0
    for i in range(start, len(data)):
        val = data[i] - 63
        if not val:
            continue
        base = 6 * (i - start)
        for k in range(6):
            if val & (32 >> k):
                bit = base + k
                if bit >= need:
                    break
                u += bit - at
                at = bit
                while u >= v:
                    u -= v
                    v += 1
                edges.append((u, v))
    return Graph(n, edges)


def _looks_like_graph6(line: str) -> bool:
    s = line.strip()
    return bool(s) and " " not in s and "\t" not in s and not s[0].isdigit()


def parse_graphs(text: str, source: str = "<input>") -> list[tuple[Graph, tuple | None]]:
    """Parse graphs from text; the first non-blank line decides the encoding."""
    # Cut comments only up to the first line with content: _lines would
    # cut them all, and parse_graphs_text cuts them again.
    first = next(
        (body for line in text.splitlines() if (body := line.split("#", 1)[0].strip())), ""
    )
    if not first:
        return []
    if not _looks_like_graph6(first):
        return parse_graphs_text(text, source)
    bodies = ((no, line.strip()) for no, line in enumerate(_lines(text), start=1))
    return [(from_graph6(body, source, no), None) for no, body in bodies if body]


# list assignments


def parse_lists(text: str, n: int, source: str = "<lists>") -> list[frozenset[int]]:
    """Parse 'v: c1 c2 ... ck' lines into per-vertex color sets.

    Each line is cut once at its ':'; the vertex ids are converted by one
    int() map, and each distinct list text becomes one frozenset, shared
    by every vertex whose line carries it.  Only if a conversion or check
    fails are the lines read one by one, to report the first bad one.
    """
    lines = _lines(text)
    rows = [line.partition(":") for line in lines]
    if not all(map(itemgetter(1), rows)):
        # Blank lines are skipped; any other line without ':' is refused.
        rows = [row for row in rows if row[1] or row[0].strip()]
        if not all(map(itemgetter(1), rows)):
            raise _list_error(lines, n, source)
    try:
        vertices = list(map(int, map(str.strip, map(itemgetter(0), rows))))
        tails = list(map(itemgetter(2), rows))
        sets = {tail: frozenset(map(int, tail.split())) for tail in set(tails)}
        by_vertex = dict(zip(vertices, map(sets.__getitem__, tails)))
        if not (
            len(vertices) == len(by_vertex) == n
            and all(sets.values())
            and (n == 0 or min(vertices) >= 0 and max(vertices) < n)
        ):
            raise ValueError
    except ValueError:
        raise _list_error(lines, n, source) from None
    return list(map(by_vertex.__getitem__, range(n)))


def _list_error(lines: list[str], n: int, source: str) -> ParseError:
    """The error of the first bad line in reading order, or the missing
    vertices, for lines that parse_lists has refused."""
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        body = line.strip()
        if not body:
            continue
        if ":" not in body:
            return ParseError(source, lineno, body.split()[0], "expected 'v: colors' line")
        head, _, tail = body.partition(":")
        head = head.strip()
        try:
            v = int(head)
        except ValueError:
            return ParseError(source, lineno, head, "expected vertex id")
        if not 0 <= v < n:
            return ParseError(source, lineno, head, f"vertex out of range for n={n}")
        if v in seen:
            return ParseError(source, lineno, head, "duplicate vertex line")
        colors = tail.split()
        for t in colors:
            try:
                int(t)
            except ValueError:
                return ParseError(source, lineno, t, "expected color")
        if not colors:
            return ParseError(source, lineno, head, "empty color list")
        seen.add(v)
    missing = [v for v in range(n) if v not in seen]
    return ParseError(source, len(lines) or 1, str(missing[0]), f"missing list for vertices {_first_ten(missing)}")


def _first_ten(vertices: list[int]) -> str:
    """vertices as a list, cut after the first ten with the count added,
    so that an error message stays short whatever n is."""
    if len(vertices) <= 10:
        return str(vertices)
    shown = ", ".join(map(str, vertices[:10]))
    return f"[{shown}, ...] ({len(vertices)} in all)"


def write_coloring(coloring) -> str:
    """Serialize a coloring as one 'v: c' line per vertex."""
    lines = []
    for v, c in enumerate(coloring):
        lines.append(f"{v}: {c}" if c is not None else f"{v}: -")
    return "\n".join(lines) + "\n"


def uniform_lists(n: int, k: int) -> list[frozenset[int]]:
    """Return n identical lists {1..k}."""
    return [frozenset(range(1, k + 1))] * n
