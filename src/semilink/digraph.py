"""Dense simple digraphs over integer vertex ids.

The adjacency relation is a boolean n x n matrix; ``adj[u, v]`` means the arc
u -> v is present.  Digraphs are immutable after construction, so every query
is pure and safe for concurrent shared reads.

The pair checks read a private bit packing of the adjacency, its rows and its
columns, derived once, on first use, from the matrix the digraph holds.  With
``copy=False`` that matrix is the caller's array, which must not be written
afterwards: a packing already derived would no longer match it.  The build is
idempotent, so two threads that race to it derive equal packings, and either
one serves every later read.

A caller's vertex id is a Python or numpy integer in 0..n-1, never a float
(0.5 would be truncated), a string or a bool.  The library reads every caller
id through :func:`_vertex_id` or :func:`_vertex_ids`, which raise ValueError
naming the argument.
"""

from __future__ import annotations

import operator
import warnings
from typing import Iterable, Iterator, Sequence

import numpy as np

# Largest order the arc-list parser accepts, far above the paper's n = 1764.
# Its adjacency matrix takes 400 MB, and 0.25 n^2 more (100 MB) once packed
# for a pair check.  Each flow query copies it once, and its search blocks are
# boolean row subsets of that copy, never n x n floats.
_MAX_ORDER = 20_000


class Digraph:
    """A simple digraph (no loops, at most one arc per ordered pair)."""

    __slots__ = ("_adj", "_packing")

    def __init__(self, adjacency: np.ndarray, *, copy: bool = True):
        adj = np.asarray(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.shape[0] and adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if copy:
            adj = adj.copy()
        adj.setflags(write=False)
        self._adj = adj
        self._packing = None

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        _check_order(n)
        pairs = [_vertex_ids(arc, "arc endpoint", None) for arc in arcs]
        if any(len(p) != 2 for p in pairs):
            raise ValueError("each arc must be a pair (u, v)")
        # an id beyond int64 is out of range for any n: it saturates, as in the arc-list parser
        ids = np.array(pairs, dtype=object).clip(-2 ** 63, 2 ** 63 - 1).astype(np.int64)
        return cls(_arc_matrix(n, ids.reshape(-1, 2), pairs.__getitem__), copy=False)

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self._adj[self._check_vertex(u), self._check_vertex(v)])

    @property
    def arc_count(self) -> int:
        return int(self._adj.sum())

    def _check_vertex(self, v: int) -> int:
        """``v`` as an int vertex of this digraph, or ValueError."""
        # len() is the cheapest read of n, and has_arc checks two vertices per call
        return _vertex_id(v, "vertex", len(self._adj))

    def out_degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1)

    def in_degrees(self) -> np.ndarray:
        return self._adj.sum(axis=0)

    def min_out_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty digraph has no degrees")
        return int(self.out_degrees().min())

    def min_in_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty digraph has no degrees")
        return int(self.in_degrees().min())

    def min_semidegree(self) -> int:
        return min(self.min_out_degree(), self.min_in_degree())

    def reverse(self) -> "Digraph":
        return Digraph(self._adj.T)

    def induced(self, vertices: Iterable[int]) -> "Digraph":
        """Subgraph induced on ``vertices``; new ids follow the sorted order."""
        ids = np.unique(np.asarray(_vertex_ids(vertices, "vertex", self.n), dtype=np.int64))
        return Digraph(self._adj[ids][:, ids], copy=False)

    def with_flipped_arc(self, u: int, v: int) -> "Digraph":
        """Copy of this digraph with the arc between u and v reversed.

        A packed digraph hands the copy a copy of its packing, with rows u, v
        and columns u, v packed anew; an unpacked one leaves the copy
        unpacked.
        """
        if not self.has_arc(u, v):
            raise ValueError(f"arc ({u}, {v}) not present")
        adj = self._adj.copy()
        adj[u, v] = False
        adj[v, u] = True
        child = Digraph(adj, copy=False)
        if self._packing is not None:
            rows, cols = (bits.copy() for bits in self._packing)
            # the flip changes rows u, v and columns u, v only
            rows[[u, v]] = np.packbits(adj[[u, v]], axis=1)
            cols[[u, v]] = np.packbits(adj[:, [u, v]].T, axis=1)
            child._packing = rows, cols
        return child

    def _packed(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows and the columns of the adjacency as n x ceil(n/8) bytes,
        ``np.packbits(a, axis=1)`` and ``np.packbits(a.T, axis=1)``, built on
        first use and kept; a loop bit or a padding bit is 0."""
        packing = self._packing
        if packing is None:
            packing = self._packing = _pack(self._adj)
        return packing

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._adj, other._adj))

    def __hash__(self):  # pragma: no cover - explicit unhashability
        raise TypeError("Digraph is not hashable")

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


# Pair checks read rows in bands of this many, so a compare holds about
# _BAND * n bytes at a time (_BAND * n / 8 once packed), not n^2.
_BAND = 256


def _upper_bands(size: int) -> Iterator[tuple[slice, slice]]:
    """Row bands ``(rows, cols)`` of the upper triangle of a size x size block.

    Band i is rows i .. i+_BAND-1 against columns i .. size-1.  Each unordered
    pair of distinct indices lies in exactly one band, read there once, or
    twice if both indices fall in the band's own rows.
    """
    for i in range(0, size, _BAND):
        yield slice(i, i + _BAND), slice(i, None)


# The three delta swaps, (shift, mask), that reflect an 8 x 8 bit tile held
# in a uint64 word about its anti-diagonal: the 4 x 4 quarters, then the
# 2 x 2 cells of each quarter, then single bits.  Byte r of the word is tile
# row r, and np.packbits puts tile column c at bit 7 - c, so bit 8r + 7 - c
# holds (r, c), and the transpose moves it to bit 8c + 7 - r.
_ANTI_DIAGONAL_SWAPS = tuple((s, np.uint64(m)) for s, m in (
    (36, 0x00000000_0F0F0F0F), (18, 0x00003333_00003333), (9, 0x00550055_00550055)))


def _pack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The packed rows and columns of an adjacency, as :meth:`Digraph._packed`
    returns them.

    The columns are the rows transposed by 8 x 8 bit tiles (Warren, *Hacker's
    Delight*, 2nd ed., section 7-3): the rows, padded to ceil(n/8) * 8, cut
    into tiles of 8 rows by one byte, each tile transposed as one uint64
    word, and the grid of tiles transposed.  This avoids packing the strided
    columns of ``a``.  The rows are packed _BAND at a time, so the build
    holds at most three arrays of n^2 / 8 bytes at once: the rows, the tiles
    and either the swaps' delta words or the columns.
    """
    n = len(a)
    w = -(-n // 8)
    rows = np.zeros((8 * w, w), dtype=np.uint8)
    for i in range(0, n, _BAND):
        rows[i:min(i + _BAND, n)] = np.packbits(a[i:i + _BAND], axis=1)
    # tile (I, J): rows 8I .. 8I+7 of byte J, row r in byte r of one word
    tiles = rows.reshape(w, 8, w).transpose(0, 2, 1).copy().view("<u8")
    delta = np.empty_like(tiles)
    for shift, mask in _ANTI_DIAGONAL_SWAPS:
        np.right_shift(tiles, shift, out=delta)
        delta ^= tiles
        delta &= mask
        tiles ^= delta
        np.left_shift(delta, shift, out=delta)
        tiles ^= delta
    del delta
    # tile (I, J) transposed is tile (J, I) of the columns; a contiguous
    # copy, since a band read of the strided view takes about twice as long
    cols = np.ascontiguousarray(tiles.view(np.uint8).reshape(w, w, 8).transpose(1, 2, 0))
    return rows[:n], cols.reshape(8 * w, w)[:n]


def _first_bad_row(d: Digraph, both) -> int | None:
    """The first vertex u with a vertex v != u for which the symmetric bitwise
    ``both(adj[u, v], adj[v, u])`` fails, or None; ``both`` maps two 0 bits
    to 0, as ``np.bitwise_or`` and ``np.bitwise_xor`` do.

    Row u of the packed rows against row u of the packed columns pairs
    adj[u, v] with adj[v, u]; loop and padding bits are 0 in both, so a good
    row counts n - 1 bits.  The rows are read _BAND at a time.
    """
    rows, cols = d._packed()
    n = len(rows)
    # summing into the smallest type that holds n is the fastest
    count = np.min_scalar_type(n)
    for i in range(0, n, _BAND):
        bits = np.bitwise_count(both(rows[i:i + _BAND], cols[i:i + _BAND]))
        miss = np.flatnonzero(bits.sum(axis=1, dtype=count) != n - 1)
        if miss.size:
            return i + int(miss[0])
    return None


def is_semicomplete(d: Digraph) -> bool:
    """True iff every unordered pair of vertices has at least one arc."""
    return _first_bad_row(d, np.bitwise_or) is None


def is_tournament(d: Digraph) -> bool:
    """True iff every unordered pair has exactly one arc."""
    return _first_bad_row(d, np.bitwise_xor) is None


class Path:
    """A directed path; consecutive vertices must be arcs of the host digraph.

    A single-vertex path (length 0) is allowed.
    """

    __slots__ = ("vertices",)

    def __init__(self, d: Digraph, vertices: Sequence[int]):
        verts = tuple(map(d._check_vertex, vertices))
        if not verts:
            raise ValueError("a path needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError("path vertices must be distinct")
        adj = d.adjacency
        for a, b in zip(verts, verts[1:]):
            if not adj[a, b]:
                raise ValueError(f"missing arc ({a}, {b})")
        self.vertices = verts

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def index_of(self, v: int) -> int:
        return self.vertices.index(v)

    def subpath(self, d: Digraph, start: int, end: int) -> "Path":
        """Subpath from vertex ``start`` to vertex ``end`` (both on the path)."""
        i, j = self.vertices.index(start), self.vertices.index(end)
        if i > j:
            raise ValueError(f"{start} does not precede {end} on this path")
        return Path(d, self.vertices[i:j + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return "Path(" + "->".join(map(str, self.vertices)) + ")"


class PathSystem:
    """An ordered collection of pairwise vertex-disjoint paths."""

    __slots__ = ("paths",)

    def __init__(self, paths: Sequence[Path]):
        seen: set[int] = set()
        for p in paths:
            overlap = seen.intersection(p.vertices)
            if overlap:
                raise ValueError(f"paths share vertices {sorted(overlap)}")
            seen.update(p.vertices)
        self.paths = tuple(paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    def vertex_set(self) -> set[int]:
        out: set[int] = set()
        for p in self.paths:
            out.update(p.vertices)
        return out

    def total_vertices(self) -> int:
        return sum(len(p.vertices) for p in self.paths)

    def __repr__(self) -> str:
        return f"PathSystem({list(self.paths)!r})"


def reduce_to_minimal_path(d: Digraph, p: Path) -> Path:
    """Shortcut a path until no arc skips interior vertices.

    One pass: each vertex in turn jumps to the farthest later vertex it has
    an arc to.  A jump leaves no shortcut at that vertex or before it, so
    this is the fixpoint of replacing the earliest, longest shortcut.  The
    result keeps both endpoints and uses a subset of the original vertices;
    a path with no internal shortcut admits no endpoint-preserving path on
    a proper subset of its vertices.
    """
    verts = list(p.vertices)
    i = 0
    while i < len(verts) - 2:
        row = d.adjacency[verts[i]]
        for j in range(len(verts) - 1, i + 1, -1):
            if row[verts[j]]:
                del verts[i + 1:j]
                break
        i += 1
    return Path(d, verts)


def _vertex_id(v, what: str, n: int | None) -> int:
    """``v`` as an int, or ValueError naming ``what``: 0.5 and True are no ids,
    and unless ``n`` is None an id outside 0..n-1 is out of range."""
    try:
        i = operator.index(v)
    except TypeError:
        i = None
    if i is None or type(v) is bool:
        raise ValueError(f"{what} {v!r} is not an integer")
    if n is not None and not 0 <= i < n:
        raise ValueError(f"{what} {i} out of range (n={n})")
    return i


def _vertex_ids(values, what: str, n: int | None) -> list[int] | np.ndarray:
    """Each of ``values`` read as by :func:`_vertex_id`.  An integer ndarray
    (the linker's free vertices) is range-checked in one pass and returned as
    it is; id by id it took about a tenth of a link call."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        return [_vertex_id(v, what, n) for v in values]
    if n is not None and values.size and (values.min() < 0 or values.max() >= n):
        bad = values[(values < 0) | (values >= n)][0]
        raise ValueError(f"{what} {bad} out of range (n={n})")
    return values


def _check_order(n: int) -> None:
    """Reject an order that is no integer, negative or above ``_MAX_ORDER``."""
    if _vertex_id(n, "order", None) < 0:
        raise ValueError(f"order {n} is negative")
    if n > _MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported maximum {_MAX_ORDER}")


def digraph_from_arc_list(text: str) -> Digraph:
    """Parse the arc-list format: first line ``n m``, then m lines ``u v``.

    Rejects loops, duplicate arcs, out-of-range ids, malformed lines and
    orders above ``_MAX_ORDER``.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise ValueError("empty arc-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    _check_order(n)
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} arc lines, got {len(lines) - 1}")
    body = "\n".join(lines[1:])
    try:
        with warnings.catch_warnings():
            # older numpy warns, instead of raising, where a token is not an integer
            warnings.simplefilter("error", DeprecationWarning)
            flat = np.fromstring(body, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        raise ValueError("malformed arc lines") from None
    # two tokens per line: a stripped line holds one gap (a run of spaces and
    # tabs), and the gaps and the line breaks alternate
    raw = np.frombuffer(body.encode(), dtype=np.uint8)
    gap = (raw == ord(" ")) | (raw == ord("\t"))
    gaps = np.flatnonzero(gap[1:] & ~gap[:-1]) + 1
    breaks = np.flatnonzero(raw == ord("\n"))
    if flat.size != 2 * m or gaps.size != m \
            or (gaps[:-1] > breaks).any() or (breaks > gaps[1:]).any():
        raise ValueError("malformed arc lines")
    arc_lines = lines[1:]
    return Digraph(_arc_matrix(n, flat.reshape(m, 2),
                               lambda i: [int(t) for t in arc_lines[i].split()]), copy=False)


def _arc_matrix(n: int, arcs: np.ndarray, given) -> np.ndarray:
    """The n x n adjacency of an m x 2 integer array of arcs, or ValueError
    naming the first arc, in order, that is out of range, a loop or a repeat.

    An id beyond int64 saturates in ``arcs``, so the message names arc i as
    ``given(i)`` reads it from the caller's input.
    """
    u, v = arcs[:, 0], arcs[:, 1]
    out = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    adj = np.zeros((n, n), dtype=bool)
    if not (out | (u == v)).any():
        adj[u, v] = True
        if np.count_nonzero(adj) == len(arcs):
            return adj
    # u * n + v tells in-range arcs apart; a false repeat it flags follows an
    # out-of-range arc with the same key, so the first flag is a true one
    repeat = np.ones(len(arcs), dtype=bool)
    repeat[np.unique(u * n + v, return_index=True)[1]] = False
    i = int((out | (u == v) | repeat).argmax())
    a, b = given(i)
    if out[i]:
        raise ValueError(f"arc ({a}, {b}) out of range for n={n}")
    if a == b:
        raise ValueError(f"loop at vertex {a}")
    raise ValueError(f"duplicate arc ({a}, {b})")


def _arc_lines(d: Digraph, head: str, tail: str = "") -> list[str]:
    """One string per non-empty row: ``head.format(u) + label(v) + tail`` per arc.

    The lines of a row are joined around a table of vertex labels, so no arc
    is formatted on its own; arcs come in row order.
    """
    a = d.adjacency
    labels = np.array([str(v) for v in range(d.n)], dtype=object)
    rows = []
    for u in np.flatnonzero(a.any(axis=1)).tolist():
        pre = head.format(u)
        rows.append(pre + (tail + "\n" + pre).join(labels[np.flatnonzero(a[u])]) + tail)
    return rows


def digraph_to_arc_list(d: Digraph) -> str:
    lines = [f"{d.n} {d.arc_count}", *_arc_lines(d, "{} ")]
    return "\n".join(lines) + "\n"
