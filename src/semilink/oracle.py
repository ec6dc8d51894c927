"""Exhaustive decision procedures for small instances.

These are the ground truth the flow and linkage machinery is tested
against, so they deliberately share no code with it: plain backtracking
over adjacency, with reachability pruning and explicit budgets.  Budget
exhaustion yields an explicit ``unknown`` verdict, never a guess.  Only the
caller's terminals go through the library's vertex-id reader, so both sides
accept and reject the same ids.

The linkage search holds adjacency rows as Python-int bitmasks (bit ``w``
of row ``u`` set when ``u -> w`` is an arc), packed from the matrix the
first time the search reads them, so a query that settles after a few
rows of a large digraph packs only those.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .digraph import Digraph, _vertex_id

_BRUTEFORCE_MAX_N = 12
# The linkage search appends at most this many vertices along one branch;
# it recurses once per vertex, so a deeper branch (a long path in a large
# digraph) ends in ``unknown`` rather than overflowing the interpreter stack.
_DEPTH_LIMIT = 500


@dataclass(frozen=True)
class OracleBudget:
    """Limits of one linkage search, each ending it with ``unknown``.

    ``node_limit`` caps the search nodes and ``time_limit`` the seconds.  A
    third limit is fixed: no branch appends more than ``_DEPTH_LIMIT``
    vertices, whatever the caller's stack depth.
    """

    node_limit: int = 2_000_000
    time_limit: float = 60.0

    def __post_init__(self):
        if not (self.node_limit > 0 and self.time_limit > 0
                and math.isfinite(self.time_limit)):
            raise ValueError("budget limits must be positive and finite")


@dataclass
class OracleAnswer:
    verdict: str  # "yes" | "no" | "unknown"
    paths: tuple[tuple[int, ...], ...] | None = None
    nodes_explored: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("check .verdict explicitly; 'unknown' is a real outcome")


class _Exhausted(Exception):
    pass


class _Rows(dict):
    """Out-neighbour bitmask of each vertex, packed on first lookup."""

    def __init__(self, adj: np.ndarray):
        super().__init__()
        self._adj = adj

    def __missing__(self, u: int) -> int:
        row = int.from_bytes(np.packbits(self._adj[u], bitorder="little").tobytes(),
                             "little")
        self[u] = row
        return row


@dataclass
class _Search:
    rows: _Rows
    pairs: Sequence[tuple[int, int]]
    budget: OracleBudget
    deadline: float = 0.0
    nodes: int = 0
    result: list[list[int]] | None = None
    goals: int = 0  # bitmask of every pair's goal

    def run(self) -> OracleAnswer:
        self.deadline = time.monotonic() + self.budget.time_limit
        partial = [[x] for x, _ in self.pairs]
        used = 0
        for x, y in self.pairs:
            used |= 1 << x
            self.goals |= 1 << y
        try:
            found = self._extend(partial, 0, used, 0)
        except _Exhausted:
            return OracleAnswer("unknown", nodes_explored=self.nodes)
        if found:
            if self.result is None:
                raise AssertionError("search succeeded without recording a linkage")
            return OracleAnswer("yes", tuple(tuple(p) for p in self.result), self.nodes)
        return OracleAnswer("no", nodes_explored=self.nodes)

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes >= self.budget.node_limit:
            raise _Exhausted
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _Exhausted

    def _reachable(self, start: int, goal: int, blocked: int) -> bool:
        """Whether ``goal`` is reached from ``start`` through unblocked vertices.

        The closure grows one frontier at a time: the next frontier is the
        OR of the frontier's rows, less what is blocked or already seen.
        """
        rows = self.rows
        goal_bit = 1 << goal
        frontier = 1 << start
        blocked |= frontier
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reached |= rows[low.bit_length() - 1]
            if reached & goal_bit:
                return True
            frontier = reached & ~blocked
            blocked |= frontier
        return False

    def _extend(self, partial: list[list[int]], i: int, used: int, depth: int) -> bool:
        """Extend path i by each out-neighbour of its tip, lowest id first.

        ``used`` is the bitmask of every vertex on a partial path, and
        ``depth`` the number of vertices appended to reach this node.
        """
        k = len(self.pairs)
        if i == k:
            self.result = [list(p) for p in partial]
            return True
        self._tick()
        if depth == _DEPTH_LIMIT:
            raise _Exhausted
        # Off limits to every pending path: the vertices in use and the
        # goals (a completed path holds its own).  A path's own tip and goal
        # are tested before these.
        taken = used | self.goals
        # A pair with no route left in the residual digraph dooms the branch.
        for j in range(i, k):
            if not self._reachable(partial[j][-1], self.pairs[j][1], taken):
                return False
        path = partial[i]
        goal_bit = 1 << self.pairs[i][1]
        row = self.rows[path[-1]]
        while row:
            low = row & -row
            row ^= low
            if low == goal_bit:
                path.append(low.bit_length() - 1)
                if self._extend(partial, i + 1, used | low, depth + 1):
                    return True
                path.pop()
            elif not low & taken:
                path.append(low.bit_length() - 1)
                if self._extend(partial, i, used | low, depth + 1):
                    return True
                path.pop()
        return False


def exists_disjoint_linkage(d: Digraph, pairs: Sequence[tuple[int, int]],
                            budget: OracleBudget | None = None) -> OracleAnswer:
    """Exhaustively decide whether disjoint (x_i, y_i)-paths exist.

    Extends the first incomplete path by the lowest-id admissible vertex,
    backtracking over all choices; ``no`` is returned only after the whole
    space is exhausted, and ``unknown`` once a budget limit or the depth
    limit stops the search.  Terminals must be integers in ``range(d.n)``.
    """
    budget = budget or OracleBudget()
    pairs = [(_vertex_id(x, "terminal", d.n), _vertex_id(y, "terminal", d.n))
             for x, y in pairs]
    for x, y in pairs:
        if x == y:
            raise ValueError(f"degenerate pair ({x}, {y})")
    terms = [t for pair in pairs for t in pair]
    if len(set(terms)) != len(terms):
        # Two pairs sharing a vertex can never be linked disjointly.
        return OracleAnswer("no")
    return _Search(_Rows(d.adjacency), pairs, budget).run()


def max_disjoint_ST_paths_bruteforce(d: Digraph, sources: Sequence[int],
                                     sinks: Sequence[int]) -> int:
    """Exhaustive maximum number of disjoint source-to-sink paths.

    Uses the same path family as the flow solver: sources occur only as
    first vertices, sinks only as last ones, and vertices in both sets
    count as trivial one-vertex paths.  Terminals must be integers in
    ``range(d.n)``.

    Each source's paths are listed lazily, depth first over out-neighbour
    lists built once per query, and the search ends as soon as it holds
    ``min(sources, free sinks)`` paths, which no path system can beat.
    """
    if d.n > _BRUTEFORCE_MAX_N:
        raise ValueError(f"instance too large for brute force (n={d.n})")
    src = sorted({_vertex_id(v, "terminal", d.n) for v in sources})
    snk = {_vertex_id(v, "terminal", d.n) for v in sinks}
    if not src or not snk:
        raise ValueError("sources and sinks must be non-empty")
    overlap = [v for v in src if v in snk]
    src = [v for v in src if v not in snk]
    free_snk = snk - set(overlap)
    # A path steps only onto a free sink, where it ends, or onto a vertex
    # in no terminal set.
    steps = free_snk | (set(range(d.n)) - snk - set(src))
    nbrs = [[w for w, arc in enumerate(row) if arc and w in steps]
            for row in d.adjacency.tolist()]
    bound = min(len(src), len(free_snk))
    best = 0

    def paths_from(s: int, used: frozenset[int]) -> Iterator[tuple[int, ...]]:
        stack: list[tuple[int, ...]] = [(s,)]
        while stack:
            p = stack.pop()
            for w in nbrs[p[-1]]:
                if w in used or w in p:
                    continue
                if w in free_snk:
                    yield p + (w,)
                else:
                    stack.append(p + (w,))

    def search(idx: int, used: frozenset[int], count: int) -> bool:
        """Raise ``best`` to what the sources from idx on can add; True at the bound."""
        nonlocal best
        best = max(best, count)
        if best == bound:
            return True
        if idx == len(src):
            return False
        remaining_sinks = len(free_snk - used)
        if count + min(len(src) - idx, remaining_sinks) <= best:
            return False
        for p in paths_from(src[idx], used):
            if search(idx + 1, used | frozenset(p), count + 1):
                return True
        return search(idx + 1, used, count)

    search(0, frozenset(), 0)
    return best + len(overlap)
