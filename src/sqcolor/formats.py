"""Parsers and writers for the on-disk formats.

Graph text format: first meaningful line is "n m", then m lines "u v"
with 0 <= u < v < n.  Blank lines and lines starting with # are ignored.
A file may hold several graphs back to back.  Optional trailing lines
"rot v: u1 u2 ... uk" attach a rotation system to the last graph.

graph6 is accepted as an alternate encoding, one graph per line; lines
are detected as graph6 when they contain no whitespace and do not start
with a digit (graph6 bytes are all >= 63).

List assignments: lines "v: c1 c2 ... ck".
"""

from __future__ import annotations

from .errors import ParseError
from .graph_core import Graph
from .planar_embed import RotationSystem


def _tokens(text: str, source: str):
    """Yield (token, lineno) pairs, skipping comments and blanks."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, lineno


def _int(tok: str, lineno: int, source: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(source, lineno, tok, f"expected {what}") from None


def parse_graphs_text(text: str, source: str = "<text>") -> list[tuple[Graph, RotationSystem | None]]:
    """Parse a text stream of one or more graphs with optional rotations."""
    toks = list(_tokens(text, source))
    out: list[tuple[Graph, RotationSystem | None]] = []
    i = 0
    while i < len(toks):
        tok, lineno = toks[i]
        if tok == "rot":
            raise ParseError(source, lineno, tok, "rotation line before any graph")
        n = _int(tok, lineno, source, "vertex count")
        if i + 1 >= len(toks):
            raise ParseError(source, lineno, tok, "missing edge count")
        mtok, mline = toks[i + 1]
        m = _int(mtok, mline, source, "edge count")
        if n < 0 or m < 0:
            raise ParseError(source, lineno, tok, "negative header value")
        i += 2
        edges = []
        for k in range(m):
            if i + 1 >= len(toks):
                raise ParseError(source, toks[-1][1], toks[-1][0], f"expected {m} edges, got {k}")
            utok, uline = toks[i]
            vtok, vline = toks[i + 1]
            u = _int(utok, uline, source, "vertex id")
            v = _int(vtok, vline, source, "vertex id")
            if not (0 <= u < v < n):
                raise ParseError(source, uline, f"{utok} {vtok}", f"edge must satisfy 0 <= u < v < {n}")
            edges.append((u, v))
            i += 2
        try:
            g = Graph(n, edges)
        except ValueError as e:
            raise ParseError(source, lineno, tok, str(e)) from None
        # optional rotation block
        rot = None
        if i < len(toks) and toks[i][0] == "rot":
            rows: dict[int, tuple[int, ...]] = {}
            while i < len(toks) and toks[i][0] == "rot":
                rline = toks[i][1]
                i += 1
                if i >= len(toks):
                    raise ParseError(source, rline, "rot", "truncated rotation line")
                vtok, vline = toks[i]
                if not vtok.endswith(":"):
                    raise ParseError(source, vline, vtok, "rotation vertex must end with ':'")
                v = _int(vtok[:-1], vline, source, "vertex id")
                if not 0 <= v < n:
                    raise ParseError(source, vline, vtok, "rotation vertex out of range")
                i += 1
                nbrs = []
                while i < len(toks) and toks[i][1] == vline and toks[i][0] != "rot":
                    ntok, nline = toks[i]
                    nbrs.append(_int(ntok, nline, source, "neighbor id"))
                    i += 1
                rows[v] = tuple(nbrs)
            missing = [v for v in range(n) if len(g.adj[v]) > 0 and v not in rows]
            if missing:
                raise ParseError(source, lineno, "rot", f"rotation missing vertices {missing}")
            rot = RotationSystem(tuple(rows.get(v, ()) for v in range(n)))
        out.append((g, rot))
    return out


def write_graph_text(g: Graph, rot: RotationSystem | None = None) -> str:
    """Serialize one graph (optionally with rotation lines)."""
    lines = [f"{g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    if rot is not None:
        for v in range(g.n):
            if rot.rot[v]:
                lines.append(f"rot {v}: " + " ".join(str(u) for u in rot.rot[v]))
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


def parse_graphs(text: str, source: str = "<input>") -> list[tuple[Graph, RotationSystem | None]]:
    """Parse graphs from text, auto-detecting the encoding."""
    meaningful = None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            meaningful = body
            break
    if meaningful is None:
        return []
    if _looks_like_graph6(meaningful):
        out = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                out.append((from_graph6(body, source, lineno), None))
        return out
    return parse_graphs_text(text, source)


# list assignments


def parse_lists(text: str, n: int, source: str = "<lists>") -> list[frozenset[int]]:
    """Parse 'v: c1 c2 ... ck' lines into per-vertex color sets."""
    lists: dict[int, frozenset[int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise ParseError(source, lineno, body.split()[0], "expected 'v: colors' line")
        head, _, tail = body.partition(":")
        v = _int(head.strip(), lineno, source, "vertex id")
        if not 0 <= v < n:
            raise ParseError(source, lineno, head.strip(), f"vertex out of range for n={n}")
        if v in lists:
            raise ParseError(source, lineno, head.strip(), "duplicate vertex line")
        colors = frozenset(_int(t, lineno, source, "color") for t in tail.split())
        if not colors:
            raise ParseError(source, lineno, head.strip(), "empty color list")
        lists[v] = colors
    missing = [v for v in range(n) if v not in lists]
    if missing:
        raise ParseError(source, len(text.splitlines()) or 1, str(missing[0]), f"missing list for vertices {missing}")
    return [lists[v] for v in range(n)]


def write_coloring(coloring) -> str:
    """Serialize a coloring as one 'v: c' line per vertex."""
    lines = []
    for v, c in enumerate(coloring):
        lines.append(f"{v}: {c}" if c is not None else f"{v}: -")
    return "\n".join(lines) + "\n"


def uniform_lists(n: int, k: int, start: int = 1) -> list[frozenset[int]]:
    """Return n identical lists {start..start+k-1}."""
    base = frozenset(range(start, start + k))
    return [base] * n
