"""Vertex-disjoint path systems, minimum vertex cuts, and exact connectivity.

Everything is built on one unit-capacity flow kernel over the node-split
graph: each vertex v becomes an internal arc v_in -> v_out of capacity 1,
original arcs get unbounded capacity, so max flow counts vertex-disjoint
(or internally disjoint) paths and every finite cut is a set of vertices.

Augmentation uses breadth-first search with numpy frontier expansion, one
sweep per path, wherever the paths are returned.  Queries that need only a
value (the connectivity deciders and the sampled checks) run in phases
instead (Dinic; Even and Tarjan bound unit-capacity networks by O(sqrt n)
phases): one BFS records the levels of the residual graph, then a
depth-first blocking flow pushes level-increasing paths through the same
augmentation step until none is left.  The maximum flow value is unique,
so both give the same value; the residual reachable set is the source side
of the minimal minimum cut whichever maximum flow is found, so the cut is
the same too.

The minimum-weight variant (unit cost per vertex) augments along successive
cheapest paths: a Bellman-Ford relaxation that follows each node copy's few
entry arcs and takes the original arcs in one read per sweep, cheapest
out-copy first, then a BFS restricted to tight arcs.  Distances are unique, so no path depends on
the relaxation order.  It first pushes its one-arc paths s->t in one step,
lowest sink first: while the flow is only such arcs no residual cost is
negative, so each of them is the path the relaxation and the tight BFS
would pick next.  A vertex carries at most one unit, so the flow is
stored as two per-vertex links (the flow arc into it and the one out of
it), never as an n x n matrix.  A pair query first pushes all its two-arc
paths u->m->v in one step: they are exactly the augmentations its first BFS
sweeps would find.  A value query then pushes its three-arc paths
u->a->b->v in one step too: they are exactly the blocking flow of its first
phase, so the phases go on from the same flow.  All tie-breaking is by
lowest vertex id, so outputs are deterministic.  Each query allocates its
own scratch state, so concurrent queries over a shared immutable digraph
are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .digraph import Digraph, Path, PathSystem, _vertex_id, _vertex_ids, reduce_to_minimal_path
from .dominators import _in_scores, goodness_scores

_INF = np.inf


@dataclass(frozen=True)
class CutCertificate:
    """A vertex separator witnessing that no more disjoint paths exist."""

    separator: frozenset[int]
    source_side: frozenset[int]
    sink_side: frozenset[int]


@dataclass(frozen=True)
class LocalCut:
    """Result of a single-pair cut query."""

    value: int
    separator: frozenset[int] | None
    paths: tuple[Path, ...]
    direct_arc: bool  # the arc u->v was present and counted as one path


class FlowInfeasible(Exception):
    """Raised when the requested number of disjoint paths does not exist."""

    def __init__(self, achieved: int, cut: CutCertificate):
        super().__init__(f"only {achieved} disjoint paths exist (cut size {len(cut.separator)})")
        self.achieved = achieved
        self.cut = cut


class _SplitFlow:
    """Unit-vertex-capacity flow state for one query.

    Flow paths run from the out-copy of a source to the in-copy of a sink;
    terminals never use their internal arcs.  Each terminal carries at most
    ``cap`` paths: 1 for a set query, ``d.n`` (no limit) for a pair query.
    Sources and sinks come sorted, disjoint and outside ``forbidden``, and
    every id is in range (``_validate_terminals``, ``_pair_flow``).

    Flow arcs are kept as links: ``pred[x]`` is the tail of the flow arc
    into x and ``succ[x]`` the head of the one out of x, -1 for none.  They
    are exact for every vertex carrying at most one unit, which is all but
    a pair query's source and sink; there they name the last arc pushed.
    Arcs at those two are never cancelled (the source's out-copy is always
    a BFS seed and the search stops at the sink's in-copy), and ``paths``
    finds the source's arcs as ``pred == s``.
    """

    def __init__(self, d: Digraph, sources: Sequence[int], sinks: Sequence[int],
                 cap: int, forbidden: Iterable[int] = ()):
        n = d.n
        allowed = np.ones(n, dtype=bool)
        fb = np.asarray(list(forbidden), dtype=np.int64)
        allowed[fb] = False
        self.n = n
        self.cap = cap
        self.allowed = allowed
        self.sources = np.asarray(sources, dtype=np.int64)
        self.sinks = np.asarray(sinks, dtype=np.int64)
        self.open_src, self.open_snk = self.sources, self.sinks
        self.load: dict[int, int] = {}
        # Paths touch sources and sinks only at their endpoints: nothing may
        # enter a source or leave a sink.
        self.adj = d.adjacency.copy()
        self.adj[fb, :] = False
        self.adj[:, fb] = False
        self.adj[:, self.sources] = False
        self.adj[self.sinks, :] = False
        self.passable = allowed.copy()
        self.passable[self.sources] = False
        self.passable[self.sinks] = False
        self.pred = np.full(n, -1)
        self.succ = np.full(n, -1)
        self.internal_flow = np.zeros(n, dtype=bool)
        self._visited = None  # in- and out-copies reached by the last BFS, if it failed

    # -- breadth-first search over the residual graph ----------------------

    def _bfs(self, dist_in=None, dist_out=None, levels=None):
        """One BFS; returns the augmenting node sequence or None.

        The search stops at the level where it first reaches an open sink and
        takes the lowest-id one.  With dist arrays given, only cost-tight
        residual arcs are used and only the nearest open sinks count, so the
        augmenting path is a cheapest one.  With ``levels`` given (an in- and
        an out-copy array of -1), every copy reached below the sink's level
        gets its BFS depth there: the layered graph of a phase.  The visited
        sets of a search that finds no path remain available for cut
        extraction.
        """
        self._visited = None
        # Frontier tests use count_nonzero and ndarray.nonzero rather than
        # any() and flatnonzero: the latter go through Python-level wrappers
        # that cost more than the work itself on small frontiers.
        n = self.n
        par_in = np.full(n, -1)
        par_out = np.full(n, -1)
        vis_in = np.zeros(n, dtype=bool)
        vis_out = np.zeros(n, dtype=bool)
        tight = dist_in is not None
        seeds, targets = self.open_src, self.open_snk
        if tight:
            # every open source seeds: _bellman pins its dist_out at 0
            reach = dist_in[targets]
            targets = targets[reach == reach.min()]
        vis_out[seeds] = True
        par_out[seeds] = -2
        if levels is not None:
            levels[1][seeds] = 0
        depth = 0
        f_in, f_out = np.zeros(n, dtype=bool), vis_out.copy()
        any_in, any_out = False, seeds.size > 0
        internal_ok = self.passable & ~self.internal_flow

        while any_in or any_out:
            depth += 1
            new_in = np.zeros(n, dtype=bool)
            new_out = np.zeros(n, dtype=bool)
            if any_in:
                m = f_in & internal_ok & ~vis_out
                if tight:
                    m &= dist_out == dist_in + 1
                idx = m.nonzero()[0]
                if idx.size:
                    par_out[idx] = idx
                    new_out |= m
                # Backward along the flow arc into each in-copy: unique, as a
                # pair query's sink ends the search.  Tails repeat only at a
                # pair query's source, which is a seed.
                cols = f_in.nonzero()[0]
                tails = self.pred[cols]
                keep = tails >= 0
                if tight:
                    keep &= dist_out[tails] == dist_in[cols]
                keep[keep] = ~vis_out[tails[keep]] & ~new_out[tails[keep]]
                ci = keep.nonzero()[0]
                if ci.size:
                    par_out[tails[ci]] = cols[ci]
                    new_out[tails[ci]] = True
            if any_out:
                rows = f_out.nonzero()[0]
                sub = self.adj[rows]
                if tight:
                    sub = sub & (dist_in[None, :] == dist_out[rows][:, None])
                cand = sub.any(axis=0) & ~vis_in
                ci = cand.nonzero()[0]
                if ci.size:
                    par_in[ci] = rows[np.argmax(sub[:, ci], axis=0)]
                    new_in |= cand
                    reached = targets[new_in[targets]]
                    if reached.size:
                        return _trace(par_in, par_out, int(reached[0]))
                m = f_out & self.internal_flow & ~vis_in & ~new_in
                if tight:
                    m &= dist_in == dist_out - 1
                idx = m.nonzero()[0]
                if idx.size:
                    par_in[idx] = idx
                    new_in |= m
            vis_in |= new_in
            vis_out |= new_out
            if levels is not None:
                levels[0][new_in] = depth
                levels[1][new_out] = depth
            f_in, f_out = new_in, new_out
            any_in, any_out = np.count_nonzero(new_in) > 0, np.count_nonzero(new_out) > 0

        self._visited = vis_in, vis_out
        return None

    def _augment(self, seq) -> None:
        s, t = seq[0][1], seq[-1][1]
        self.load[s] = self.load.get(s, 0) + 1
        self.load[t] = self.load.get(t, 0) + 1
        if self.load[s] == self.cap:
            self.open_src = self.open_src[self.open_src != s]
        if self.load[t] == self.cap:
            self.open_snk = self.open_snk[self.open_snk != t]
        pred, succ = self.pred, self.succ
        for (k1, v1), (k2, v2) in zip(seq, seq[1:]):
            if k1 == "in":
                if v1 == v2:
                    self.internal_flow[v1] = True
                else:
                    # cancel v2->v1; this augmentation may already have
                    # given v1 its new flow arc, but not v2 (visited next)
                    if pred[v1] == v2:
                        pred[v1] = -1
                    succ[v2] = -1
            else:
                if v1 == v2:
                    self.internal_flow[v1] = False
                else:
                    # unit internal capacities keep every arc's flow at 0/1
                    if pred[v2] == v1 or succ[v1] == v2:
                        raise AssertionError(f"arc {v1}->{v2} would carry two units")
                    pred[v2], succ[v1] = v1, v2

    # -- maximum flow -------------------------------------------------------

    def push_two_arc_paths(self, cap: int) -> int:
        """Push up to ``cap`` paths s->m->t of a pair query at once, lowest m first.

        With no flow yet, BFS finds these paths first and in this order: each
        is a shortest augmenting path, and ties go to the lowest-id middle.
        A pair query forbids no vertex, so every middle is passable.
        """
        (s,), (t,) = self.sources.tolist(), self.sinks.tolist()
        mids = (self.adj[s] & self.adj[:, t]).nonzero()[0][:cap]
        if mids.size:
            self.pred[mids], self.succ[mids] = s, t
            self.succ[s] = self.pred[t] = mids[-1]
            self.internal_flow[mids] = True
            self.load[s] = self.load[t] = mids.size
        return mids.size

    def push_three_arc_paths(self, cap: int) -> int:
        """Push up to ``cap`` paths s->a->b->t of a pair query at once.

        Each flow-free out-neighbour a of s, lowest id first, is joined to
        the lowest-id flow-free in-neighbour b of t not yet taken that has
        the arc a->b.  It must follow a ``push_two_arc_paths`` that pushed
        every two-arc path: then every common neighbour of s and t carries
        flow, so no a beats t and no b is an out-neighbour of s.  These are
        the paths of the first phase of ``run_phases``, in its order.  Its
        layered search puts the out-neighbours of s at level 1, the
        out-copies of the flow-free ones at 2 (the others lead back to s),
        the vertices they beat outside N+(s) at 3 and 4, and t at 5.  So
        every level path is s->a->b->t over flow-free vertices, and the
        depth-first blocking flow takes the lowest live a with the lowest
        live b and drops both once used.  The step leaves the same
        ``pred``, ``succ``, ``internal_flow`` and ``load`` as that phase.
        """
        (s,), (t,) = self.sources.tolist(), self.sinks.tolist()
        free = ~self.internal_flow
        firsts = (self.adj[s] & free).nonzero()[0]
        lasts = (self.adj[:, t] & free).nonzero()[0]
        # one Python-int bitmask per a: bit j is the arc a->lasts[j].  Rows
        # first, then columns: a gather by np.ix_ takes several times longer.
        hit = np.packbits(self.adj[firsts][:, lasts], axis=1, bitorder="little")
        width = hit.shape[1]
        buf = hit.tobytes()
        free_b = (1 << lasts.size) - 1
        picks = []
        for i in range(firsts.size):
            if len(picks) == cap:
                break
            row = int.from_bytes(buf[i * width:(i + 1) * width], "little") & free_b
            if row:
                low = row & -row
                free_b ^= low
                picks.append((i, low.bit_length() - 1))
        if picks:
            i, j = np.array(picks).T
            a, b = firsts[i], lasts[j]
            self.pred[a], self.succ[a] = s, b
            self.pred[b], self.succ[b] = a, t
            self.internal_flow[a] = self.internal_flow[b] = True
            self.succ[s], self.pred[t] = a[-1], b[-1]
            self.load[s] = self.load.get(s, 0) + len(picks)
            self.load[t] = self.load.get(t, 0) + len(picks)
        return len(picks)

    def run_max(self, cap: int) -> int:
        flow = 0
        while flow < cap:
            seq = self._bfs()
            if seq is None:
                return flow
            self._augment(seq)
            flow += 1
        return flow

    def run_phases(self, cap: int) -> int:
        """Push up to ``cap`` paths, one blocking flow per layered search (Dinic).

        Each phase is one ``_bfs`` that records the levels of the copies below
        the sink's level, then a blocking flow over them.  The loop stops at
        ``cap`` or at a search that reaches no open sink, whose visited sets
        give the cut as after ``run_max``.  The value is that of ``run_max``;
        only the paths may differ.
        """
        flow = 0
        while flow < cap:
            lev_in, lev_out = np.full(self.n, -1), np.full(self.n, -1)
            seq = self._bfs(levels=(lev_in, lev_out))
            if seq is None:
                return flow
            pushed = self._blocking_flow(lev_in, lev_out, len(seq) - 1, cap - flow)
            if pushed == 0:
                raise AssertionError("a phase that reached a sink pushed nothing")
            flow += pushed
        return flow

    def _blocking_flow(self, lev_in, lev_out, top: int, cap: int) -> int:
        """Augment along level-increasing residual paths ending at level ``top``.

        Depth-first from each open source's out-copy, lowest ids first, until
        no such path is left or ``cap`` paths are pushed.  A non-terminal copy
        carries at most one unit per phase: it has one residual arc of
        capacity 1 on its far side, and the arcs an augmentation reverses
        point down a level.  So a copy is dropped once a path uses it or once
        it proves a dead end.  The first dead end after the start or after an
        augmentation drops at once every copy that no longer reaches an open
        sink.
        """
        # A dropped copy gets level -1.
        levels = {"in": lev_in, "out": lev_out}
        pruned = False
        pushed = 0
        for s in self.open_src.tolist():
            stack = [("out", s)]
            while pushed < cap and self.load.get(s, 0) < self.cap:
                kind, v = stack[-1]
                step = self._level_step(kind, v, len(stack) - 1, top, lev_in, lev_out)
                if step is None:
                    if not pruned:
                        self._prune(lev_in, lev_out, top)
                        pruned = True
                    elif len(stack) == 1:
                        break
                    else:
                        stack.pop()
                        levels[kind][v] = -1
                    continue
                stack.append(step)
                if len(stack) - 1 == top:
                    self._augment(stack)
                    pushed += 1
                    for kind, v in stack[1:-1]:
                        levels[kind][v] = -1
                    stack = stack[:1]
                    pruned = False
        return pushed

    def _prune(self, lev_in, lev_out, top: int) -> None:
        """Drop every copy below level ``top`` that reaches no open sink.

        One backward pass, level by level.  Arcs this phase reversed point
        down a level, and arcs it saturated leave dropped copies only, so the
        current flow links stand in for the phase's level graph.
        """
        fwd = self.passable & ~self.internal_flow
        back = self.pred >= 0
        good_in = np.zeros(self.n, dtype=bool)
        good_in[self.open_snk] = True
        good_out = np.zeros(self.n, dtype=bool)
        for level in range(top - 1, -1, -1):
            rows = (lev_out == level).nonzero()[0]
            keep = self.adj[rows][:, good_in].any(axis=1)
            keep |= self.internal_flow[rows] & good_in[rows]
            lev_out[rows[~keep]] = -1
            at = lev_in == level
            good_in = at & ((fwd & good_out) | (back & good_out[self.pred]))
            lev_in[at & ~good_in] = -1
            good_out = lev_out == level

    def _level_step(self, kind: str, v: int, level: int, top: int, lev_in, lev_out):
        """The lowest-id residual arc from ``(kind, v)`` to a live copy a level up."""
        if kind == "in":
            # forward along a free internal arc, else back along the flow arc in
            w = v if self.passable[v] and not self.internal_flow[v] else int(self.pred[v])
            return ("out", w) if w >= 0 and lev_out[w] == level + 1 else None
        if level + 1 == top:
            hit = self.open_snk[self.adj[v, self.open_snk]]
            return ("in", int(hit[0])) if hit.size else None
        # original arcs, or back along the internal arc
        row = self.adj[v] & (lev_in == level + 1)
        if self.internal_flow[v] and lev_in[v] == level + 1:
            row[v] = True
        w = int(row.argmax())
        return ("in", w) if row[w] else None

    def cut_certificate(self) -> CutCertificate:
        """Cut from the visited sets of the last BFS, which reached no open sink.

        A non-terminal is cut when only its in-copy is reachable, a source
        when its out-copy is unreachable, and a sink when its in-copy is
        reachable.
        """
        if self._visited is None:
            raise AssertionError("cut requested without a failed search")
        vin, vout = self._visited
        sep = vin & ~vout
        sep[self.sources[~vout[self.sources]]] = True
        sep_ids = frozenset(int(v) for v in np.flatnonzero(sep))
        src_side = frozenset(int(v) for v in np.flatnonzero(self.allowed & ~sep & vout))
        sink_side = frozenset(int(v) for v in np.flatnonzero(self.allowed & ~sep & ~vout))
        return CutCertificate(sep_ids, src_side, sink_side)

    # -- minimum-cost flow (unit cost per vertex) ---------------------------

    def _bellman(self):
        """Cheapest residual cost from the open sources to every in- and out-copy.

        Min-cost queries are set queries, so ``succ`` is exact.  An out-copy
        is entered only by its internal arc (+1, flow-free vertex) or by the
        reverse of its one outgoing flow arc (0); an in-copy by original arcs
        (0) or by its reversed internal arc (-1).  Each sweep derives
        ``dist_out`` from ``dist_in`` and then ``dist_in`` from ``dist_out``.
        The original arcs relax in one read: the finite out-copies' rows,
        cheapest first, where the first arc into each in-copy is its
        cheapest.
        """
        n = self.n
        internal_ok = self.passable & ~self.internal_flow
        back = (self.succ >= 0).nonzero()[0]
        cols = np.arange(n)
        dist_in = np.full(n, _INF)
        for _ in range(2 * n + 4):
            dist_out = np.where(internal_ok, dist_in + 1, _INF)
            dist_out[back] = dist_in[self.succ[back]]
            dist_out[self.open_src] = 0.0
            finite = (dist_out < _INF).nonzero()[0]
            order = finite[np.argsort(dist_out[finite], kind="stable")]
            new_in = np.full(n, _INF)
            if order.size:
                rows = self.adj[order]
                first = rows.argmax(axis=0)
                hit = rows[first, cols]
                new_in[hit] = dist_out[order[first[hit]]]
            new_in = np.minimum(new_in, np.where(self.internal_flow, dist_out - 1, _INF))
            if np.array_equal(new_in, dist_in):
                return dist_in, dist_out
            dist_in = new_in
        raise AssertionError("cost relaxation failed to converge")

    def push_direct_arcs(self, count: int) -> int:
        """Push up to ``count`` one-arc paths s->t of a set query at once.

        Sinks go lowest id first, each with the lowest-id open source that
        has an arc to it.  Sources only close, so a sink passed over never
        gains such an arc: each push joins the lowest open sink that has an
        arc from an open source to the lowest of those sources.
        """
        src, snk = self.open_src, self.open_snk
        hit = self.adj[np.ix_(src, snk)]
        free = np.ones(src.size, dtype=bool)
        pushed = 0
        for j in hit.any(axis=0).nonzero()[0]:
            if pushed == count:
                break
            rows = hit[:, j] & free
            if rows.any():
                i = rows.argmax()
                free[i] = False
                self._augment([("out", int(src[i])), ("in", int(snk[j]))])
                pushed += 1
        return pushed

    def run_min_cost(self, count: int) -> None:
        """Push ``count`` units along successive cheapest paths.

        The one-arc paths go first, in one step (``push_direct_arcs``), and
        each later unit takes one relaxation and one tight BFS.  The step
        changes no path: while the flow is only one-arc paths no internal
        arc carries flow, so no residual cost is negative.  An open sink
        with an arc from an open source is then at distance 0, the minimum,
        and the tight BFS stops at depth 1 with the lowest such sink and its
        lowest such source, the pair the step takes.  Cost-0 paths that
        reroute through a filled sink are left to the loop.
        ``FlowInfeasible.achieved`` counts the units of both kinds.
        """
        for achieved in range(self.push_direct_arcs(count), count):
            dist_in, dist_out = self._bellman()
            if not (dist_in[self.open_snk] < _INF).any():
                if self._bfs() is not None:
                    raise AssertionError("cost relaxation missed an augmenting path")
                raise FlowInfeasible(achieved, self.cut_certificate())
            seq = self._bfs(dist_in, dist_out)
            if seq is None:
                raise AssertionError("tight BFS must reach a cheapest sink")
            self._augment(seq)

    # -- decomposition -------------------------------------------------------

    def paths(self, d: Digraph) -> list[Path]:
        """Every flow path, by source and then by first vertex, lowest ids first."""
        out = []
        for s in self.sources:
            for w in (self.pred == s).nonzero()[0]:
                verts = [int(s), int(w)]
                while self.succ[verts[-1]] >= 0:
                    verts.append(int(self.succ[verts[-1]]))
                if verts[-1] not in self.load:
                    raise AssertionError("flow path must end at a sink")
                out.append(Path(d, verts))
        return out


def _trace(par_in: np.ndarray, par_out: np.ndarray, hit: int) -> list[tuple[str, int]]:
    """The augmenting node sequence from a seed to the in-copy of ``hit``.

    A parent equal to the node itself is its internal arc (forward into an
    out-copy, backward into an in-copy); -2 marks a seed.
    """
    seq = [("in", hit)]
    while True:
        kind, v = seq[-1]
        p = par_in[v] if kind == "in" else par_out[v]
        if p == -2:
            seq.reverse()
            return seq
        seq.append(("out" if kind == "in" else "in", int(p)))


def _validate_terminals(d: Digraph, sources, sinks, forbidden
                        ) -> tuple[list[Path], frozenset[int], list[int], list[int], list[int]]:
    """A set query's checked terminals: ``(trivial, shared, src, snk, blocked)``.
    ``trivial`` holds a one-vertex path per ``shared`` terminal (one in both
    sets), by id; ``src`` and ``snk`` the other terminals as sorted Python ints,
    also from an integer array; ``blocked`` what a flow between those avoids:
    the forbidden ids, then the shared."""
    src = set(map(int, _vertex_ids(sources, "terminal", d.n)))
    snk = set(map(int, _vertex_ids(sinks, "terminal", d.n)))
    if not src or not snk:
        raise ValueError("sources and sinks must be non-empty")
    forbidden = _vertex_ids(forbidden, "forbidden vertex", d.n)
    bad = (src | snk).intersection(forbidden)
    if bad:
        raise ValueError(f"terminals {sorted(bad)} are forbidden")
    shared = sorted(src & snk)
    return ([Path(d, (w,)) for w in shared], frozenset(shared), sorted(src - snk),
            sorted(snk - src), [*forbidden, *shared])


def max_disjoint_paths(d: Digraph, sources: Iterable[int], sinks: Iterable[int],
                       cap: int | None = None, forbidden: Iterable[int] = ()
                       ) -> tuple[PathSystem, CutCertificate | None]:
    """A maximum system (up to ``cap``) of vertex-disjoint source-to-sink paths.

    Paths contain sources and sinks only as their own endpoints.  Vertices in
    both sets yield trivial one-vertex paths.  When the maximum is below
    ``cap``, a vertex cut of matching size is returned as well.
    """
    trivial, shared, src, snk, blocked = _validate_terminals(d, sources, sinks, forbidden)
    if cap is None:
        cap = len(trivial) + min(len(src), len(snk))
    if cap < 1:
        raise ValueError("cap must be >= 1")
    paths = trivial[:cap]
    budget = cap - len(paths)
    certificate = None
    if budget > 0 and src and snk:
        fl = _SplitFlow(d, src, snk, 1, blocked)
        got = fl.run_max(budget)
        paths.extend(fl.paths(d))
        if got < budget:
            cut = fl.cut_certificate()
            certificate = CutCertificate(cut.separator | shared, cut.source_side, cut.sink_side)
    elif budget > 0:
        certificate = CutCertificate(shared, frozenset(src), frozenset(snk))
    paths.sort(key=lambda p: p.first)
    return PathSystem(paths), certificate


def min_weight_disjoint_paths(d: Digraph, sources: Iterable[int], sinks: Iterable[int],
                              count: int, forbidden: Iterable[int] = ()) -> PathSystem:
    """Exactly ``count`` disjoint paths minimizing the total vertex count.

    Sources appear only as initial vertices and sinks only as terminal ones.
    Raises :class:`FlowInfeasible` (carrying the cut) when fewer than
    ``count`` disjoint paths exist.
    """
    trivial, shared, src, snk, blocked = _validate_terminals(d, sources, sinks, forbidden)
    if count < 1:
        raise ValueError("count must be >= 1")
    paths = trivial[:count]
    budget = count - len(paths)
    if budget > 0:
        if not src or not snk:
            raise FlowInfeasible(len(paths), CutCertificate(
                shared, frozenset(src), frozenset(snk)))
        fl = _SplitFlow(d, src, snk, 1, blocked)
        try:
            fl.run_min_cost(budget)
        except FlowInfeasible as exc:
            raise FlowInfeasible(len(paths) + exc.achieved, CutCertificate(
                exc.cut.separator | shared, exc.cut.source_side, exc.cut.sink_side)) from None
        avoid = set(blocked)
        for p in fl.paths(d):
            paths.append(_minimal_within(d, p, avoid))
    paths.sort(key=lambda p: p.first)
    return PathSystem(paths)


def _minimal_within(d: Digraph, p: Path, forbidden: set[int]) -> Path:
    # Shortcutting only ever drops vertices of the path itself, so it cannot
    # break disjointness or wander into forbidden territory.
    if forbidden.intersection(p.vertices):
        raise AssertionError("flow path enters a forbidden vertex")
    return reduce_to_minimal_path(d, p)


def _pair_flow(d: Digraph, u: int, v: int, cap: int | None
               ) -> tuple[bool, int, int, _SplitFlow | None]:
    """The set-up shared by the pair queries: ``(direct, budget, pushed, flow)``.

    The arc u->v, if present, is removed and counted apart (``direct``).
    ``budget`` is what is left of ``cap`` for the other paths, and the flow
    (None when that is nothing) has its two-arc paths, ``pushed`` of them,
    in place.
    """
    if u == v:
        raise ValueError("local_cut requires distinct vertices")
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    u, v = _vertex_id(u, "terminal", d.n), _vertex_id(v, "terminal", d.n)
    direct = d.has_arc(u, v)
    budget = d.n if cap is None else cap - direct
    if budget == 0:
        return direct, budget, 0, None
    fl = _SplitFlow(d, (u,), (v,), d.n)
    fl.adj[u, v] = False
    return direct, budget, fl.push_two_arc_paths(budget), fl


def local_cut(d: Digraph, u: int, v: int, cap: int | None = None) -> LocalCut:
    """Maximum internally disjoint u->v paths and the matching vertex cut.

    When the arc u->v exists it is removed first and the result is increased
    by one (``direct_arc`` is set).  With ``cap`` given, augmentation stops
    early and no separator is reported once ``cap`` is reached.
    """
    direct, budget, got, fl = _pair_flow(d, u, v, cap)
    paths = [Path(d, (int(u), int(v)))] if direct else []
    separator = None
    if fl is not None:
        got += fl.run_max(budget - got)
        paths += fl.paths(d)
        if got < budget:
            separator = fl.cut_certificate().separator
    return LocalCut(direct + got, separator, tuple(paths), direct)


def _cut_value(d: Digraph, u: int, v: int, cap: int | None = None) -> int:
    """``local_cut(d, u, v, cap).value``, found in phases, with no paths or cut.

    After the two-arc paths, the three-arc paths go in one step
    (``push_three_arc_paths``): they are the first phase's blocking flow,
    so later phases start from the same flow.  The maximum flow value is
    unique and a capped value is min(it, cap), so the phases change no
    value.
    """
    direct, budget, got, fl = _pair_flow(d, u, v, cap)
    if fl is not None and got < budget:
        got += fl.push_three_arc_paths(budget - got)
        got += fl.run_phases(budget - got)
    return direct + got


def _sample_pairs(n: int, count: int, seed: int) -> Iterator[tuple[int, int]]:
    """``count`` seeded ordered pairs u != v, drawn lazily.

    Each draw takes two PCG64 integers in [0, n); a draw with u == v is
    redrawn, so exactly ``count`` pairs come out.
    """
    if n < 2 and count > 0:
        raise ValueError("sampling pairs needs at least two vertices")
    rng = np.random.Generator(np.random.PCG64(seed))
    while count > 0:
        u, v = map(int, rng.integers(0, n, size=2))
        if u != v:
            count -= 1
            yield u, v


def _smaller_cuts(d: Digraph, best: int) -> Iterator[int]:
    """Each new minimum of ``best`` and the local cuts of Even's stars.

    Stars run from centres 0, 1, ... while the centre is below ``best``.  A
    separator S with |S| < best misses one of those centres i, and some w is
    then cut from i (or i from w) in D-S; no arc joins that pair, so pairs
    joined by an arc are never cut.  Distinct middles give internally
    disjoint paths, so a pair's two-arc count (its c-goodness score) is at
    most its cut value, and only pairs scoring below ``best`` get a local
    cut capped at ``best``.  Each cut below ``best`` lowers it and is
    yielded; the last value yielded (or ``best`` if none) is
    min(connectivity, best).  Requires best <= d.n - 1.
    """
    full = np.ones(d.n, dtype=bool)
    a = d.adjacency
    rows = np.packbits(a, axis=1)
    i = 0
    while i < best:
        out = goodness_scores(d, i, "out", full)
        inn = _in_scores(a, rows, i, full)
        # An arc scores n > best; best only shrinks, so the star's open
        # pairs are among those open at its start.
        for w in np.flatnonzero((out < best) | (inn < best)):
            if w == i:
                continue
            for u, v, score in ((i, w, out[w]), (w, i, inn[w])):
                if score < best:
                    value = _cut_value(d, u, v, cap=best)
                    if value < best:
                        best = value
                        yield best
        i += 1


def vertex_connectivity(d: Digraph) -> int:
    """Exact vertex connectivity: the star search started at the minimum semidegree."""
    if d.n < 2:
        raise ValueError("connectivity needs at least two vertices")
    sd = d.min_semidegree()
    return min(_smaller_cuts(d, sd), default=sd)


def is_k_connected(d: Digraph, k: int) -> bool:
    """True iff n >= k+1 and the star search at k finds no cut below k."""
    if d.n < k + 1:
        return False
    if k <= 0:
        return True
    # A vertex of out- or in-degree below k is cut off by its neighbourhood,
    # since n >= k+1.
    if d.min_semidegree() < k:
        return False
    return next(_smaller_cuts(d, k), None) is None
