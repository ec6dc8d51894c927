"""Exhaustive decision procedures for small instances.

These are the ground truth the flow and linkage machinery is tested
against, so they deliberately share no code with it: plain backtracking
over adjacency, with reachability pruning and explicit budgets.  Budget
exhaustion yields an explicit ``unknown`` verdict, never a guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digraph import Digraph

_BRUTEFORCE_MAX_N = 12


@dataclass(frozen=True)
class OracleBudget:
    node_limit: int = 2_000_000
    time_limit: float = 60.0

    def __post_init__(self):
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("budget limits must be positive")


@dataclass
class OracleAnswer:
    verdict: str  # "yes" | "no" | "unknown"
    paths: tuple[tuple[int, ...], ...] | None = None
    nodes_explored: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("check .verdict explicitly; 'unknown' is a real outcome")


class _Exhausted(Exception):
    pass


@dataclass
class _Search:
    adj: np.ndarray
    pairs: Sequence[tuple[int, int]]
    budget: OracleBudget
    deadline: float = 0.0
    nodes: int = 0
    result: list[list[int]] | None = None

    def run(self) -> OracleAnswer:
        self.deadline = time.monotonic() + self.budget.time_limit
        partial = [[x] for x, _ in self.pairs]
        try:
            found = self._extend(partial, 0)
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

    def _reachable(self, start: int, goal: int, blocked: set[int]) -> bool:
        if start == goal:
            return True
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in np.flatnonzero(self.adj[u]):
                w = int(w)
                if w == goal:
                    return True
                if w not in blocked and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def _extend(self, partial: list[list[int]], i: int) -> bool:
        k = len(self.pairs)
        if i == k:
            self.result = [list(p) for p in partial]
            return True
        self._tick()
        used = {v for p in partial for v in p}
        # A pair with no route left in the residual digraph dooms the branch.
        for j in range(i, k):
            goal = self.pairs[j][1]
            blocked = (used - {partial[j][-1]}) | \
                {self.pairs[m][1] for m in range(i, k) if m != j} | \
                {partial[m][-1] for m in range(i, k) if m != j}
            if not self._reachable(partial[j][-1], goal, blocked):
                return False
        tip = partial[i][-1]
        goal = self.pairs[i][1]
        off_limits = used | {self.pairs[m][1] for m in range(i + 1, k)} | \
            {partial[m][-1] for m in range(i + 1, k)}
        for w in np.flatnonzero(self.adj[tip]):
            w = int(w)
            if w == goal:
                partial[i].append(w)
                if self._extend(partial, i + 1):
                    return True
                partial[i].pop()
                continue
            if w in off_limits:
                continue
            partial[i].append(w)
            if self._extend(partial, i):
                return True
            partial[i].pop()
        return False


def exists_disjoint_linkage(d: Digraph, pairs: Sequence[tuple[int, int]],
                            budget: OracleBudget | None = None) -> OracleAnswer:
    """Exhaustively decide whether disjoint (x_i, y_i)-paths exist.

    Extends the first incomplete path by the lowest-id admissible vertex,
    backtracking over all choices; ``no`` is returned only after the whole
    space is exhausted.
    """
    budget = budget or OracleBudget()
    terms = [t for pair in pairs for t in pair]
    for t in terms:
        if not 0 <= t < d.n:
            raise ValueError(f"terminal {t} out of range")
    for x, y in pairs:
        if x == y:
            raise ValueError(f"degenerate pair ({x}, {y})")
    if len(set(terms)) != len(terms):
        # Two pairs sharing a vertex can never be linked disjointly.
        return OracleAnswer("no")
    return _Search(d.adjacency, list(pairs), budget).run()


def max_disjoint_ST_paths_bruteforce(d: Digraph, sources: Sequence[int],
                                     sinks: Sequence[int]) -> int:
    """Exhaustive maximum number of disjoint source-to-sink paths.

    Uses the same path family as the flow solver: sources occur only as
    first vertices, sinks only as last ones, and vertices in both sets
    count as trivial one-vertex paths.
    """
    if d.n > _BRUTEFORCE_MAX_N:
        raise ValueError(f"instance too large for brute force (n={d.n})")
    src = sorted(set(int(v) for v in sources))
    snk = set(int(v) for v in sinks)
    if not src or not snk:
        raise ValueError("sources and sinks must be non-empty")
    adj = d.adjacency
    overlap = [v for v in src if v in snk]
    src = [v for v in src if v not in snk]
    free_snk = snk - set(overlap)

    best = 0

    def paths_from(s: int, used: frozenset[int]) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        stack: list[tuple[int, ...]] = [(s,)]
        while stack:
            p = stack.pop()
            for w in np.flatnonzero(adj[p[-1]]):
                w = int(w)
                if w in used or w in p:
                    continue
                if w in free_snk:
                    out.append(p + (w,))
                elif w not in snk and w not in src and w not in overlap:
                    stack.append(p + (w,))
        return out

    def search(idx: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if idx == len(src):
            return
        remaining_sinks = len([t for t in free_snk if t not in used])
        if count + min(len(src) - idx, remaining_sinks) <= best:
            return
        s = src[idx]
        for p in paths_from(s, used):
            search(idx + 1, used | frozenset(p), count + 1)
        search(idx + 1, used, count)

    search(0, frozenset(), 0)
    return best + len(overlap)
