import math
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilink.certificates import verify_linkage_certificate
from semilink.digraph import Digraph
from semilink.flows import max_disjoint_paths
from semilink.generators import (random_semicomplete, random_tournament,
                                 rotational_tournament)
from semilink.oracle import (_DEPTH_LIMIT, OracleAnswer, OracleBudget,
                             exists_disjoint_linkage, max_disjoint_ST_paths_bruteforce)

from conftest import complete_digraph, random_digraph


class TestExistsDisjointLinkage:
    def test_complete_digraph_direct_arcs(self):
        k = 3
        d = complete_digraph(2 * k)
        pairs = [(2 * i, 2 * i + 1) for i in range(k)]
        answer = exists_disjoint_linkage(d, pairs)
        assert answer.verdict == "yes"
        assert answer.paths == tuple((2 * i, 2 * i + 1) for i in range(k))

    def test_four_cycle_cross_pairs(self):
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        answer = exists_disjoint_linkage(d, [(0, 2), (2, 0)])
        assert answer.verdict == "no"

    def test_certificates_always_verify(self):
        rng = np.random.Generator(np.random.PCG64(12)
                                  )
        for _ in range(25):
            d = random_tournament(10, seed=int(rng.integers(0, 10 ** 6)))
            picks = rng.choice(10, size=4, replace=False)
            pairs = [(int(picks[0]), int(picks[1])),
                     (int(picks[2]), int(picks[3]))]
            answer = exists_disjoint_linkage(d, pairs)
            if answer.verdict == "yes":
                verify_linkage_certificate(d, pairs, answer.paths)

    def test_circulant_fifteen_two_linkage(self):
        d = rotational_tournament(15)
        rng = np.random.Generator(np.random.PCG64(15))
        for _ in range(8):
            picks = rng.choice(15, size=4, replace=False)
            pairs = [(int(picks[0]), int(picks[1])),
                     (int(picks[2]), int(picks[3]))]
            assert exists_disjoint_linkage(d, pairs).verdict == "yes"

    def test_budget_exhaustion_is_unknown(self):
        d = random_tournament(14, seed=3)
        answer = exists_disjoint_linkage(d, [(0, 1), (2, 3)],
                                         OracleBudget(node_limit=3))
        assert answer.verdict == "unknown"
        assert answer.paths is None

    def test_no_is_stable_under_relabeling(self):
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        base = exists_disjoint_linkage(d, [(0, 2), (1, 3)])
        # rotate labels by one
        perm = [1, 2, 3, 0]
        arcs = [(perm[u], perm[v]) for u, v in np.argwhere(d.adjacency)]
        d2 = Digraph.from_arcs(4, arcs)
        pairs2 = [(perm[0], perm[2]), (perm[1], perm[3])]
        assert exists_disjoint_linkage(d2, pairs2).verdict == base.verdict

    def test_overlapping_pairs_are_no(self):
        d = complete_digraph(5)
        assert exists_disjoint_linkage(d, [(0, 1), (1, 2)]).verdict == "no"

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            exists_disjoint_linkage(complete_digraph(4), [(1, 1)])

    def test_answer_is_not_a_boolean(self):
        answer = exists_disjoint_linkage(complete_digraph(4), [(0, 1)])
        with pytest.raises(TypeError):
            bool(answer)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            OracleBudget(node_limit=0)

    @pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf])
    def test_budget_rejects_non_finite_time_limit(self, limit):
        with pytest.raises(ValueError, match="finite"):
            OracleBudget(time_limit=limit)

    def test_terminals_must_be_integers(self):
        d = complete_digraph(4)
        with pytest.raises(ValueError, match="not an integer"):
            exists_disjoint_linkage(d, [(0, 2.5)])
        with pytest.raises(ValueError, match="out of range"):
            exists_disjoint_linkage(d, [(0, -1)])
        answer = exists_disjoint_linkage(d, [(np.int64(0), np.int64(3))])
        assert answer.verdict == "yes" and answer.paths == ((0, 1, 2, 3),)

    def test_trivial_query_packs_few_rows(self):
        # Rows are packed on first use: a query settled after two search
        # nodes must not pack all n rows (about 0.27 n^2 traced bytes).
        d = random_tournament(4000, seed=1)
        tracemalloc.start()
        try:
            answer = exists_disjoint_linkage(d, [(0, 1), (2, 3)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer.verdict == "yes" and answer.nodes_explored == 2
        assert peak < 0.3 * d.n ** 2

    def test_deep_branch_ends_in_unknown(self):
        # Lowest id first, the one path runs through low ids long before it
        # tries its goal; the branch stops at the depth limit instead of
        # overflowing the interpreter stack.
        answer = exists_disjoint_linkage(random_tournament(4000, seed=1), [(0, 3999)])
        assert answer.verdict == "unknown" and answer.paths is None
        assert answer.nodes_explored == _DEPTH_LIMIT + 1

    @pytest.mark.parametrize("appended", [_DEPTH_LIMIT, _DEPTH_LIMIT + 1])
    def test_depth_limit_is_exact(self, appended):
        # On a directed path the only linkage appends every other vertex.
        n = appended + 1
        d = Digraph.from_arcs(n, [(v, v + 1) for v in range(n - 1)])
        answer = exists_disjoint_linkage(d, [(0, n - 1)])
        if appended == _DEPTH_LIMIT:
            assert answer.verdict == "yes" and answer.paths == (tuple(range(n)),)
        else:
            assert answer.verdict == "unknown"
        assert answer.nodes_explored == min(appended, _DEPTH_LIMIT + 1)

    def test_criterion_four_full_node_count(self):
        # Criterion 4's 50 2-linkage queries, searched in lowest-id order,
        # explore 478 nodes in all; the bitset search must repeat that walk.
        d = rotational_tournament(15)
        rng = np.random.Generator(np.random.PCG64(44))
        total = 0
        for _ in range(50):
            picks = rng.choice(15, size=4, replace=False)
            pairs = [(int(picks[0]), int(picks[1])), (int(picks[2]), int(picks[3]))]
            answer = exists_disjoint_linkage(d, pairs)
            assert answer.verdict == "yes"
            total += answer.nodes_explored
        assert total == 478


class TestBruteforceCounts:
    def test_bottleneck(self):
        d = Digraph.from_arcs(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        assert max_disjoint_ST_paths_bruteforce(d, [0, 1], [3, 4]) == 1

    def test_complete_digraph(self):
        d = complete_digraph(9)
        assert max_disjoint_ST_paths_bruteforce(d, [0, 1, 2], [6, 7, 8]) == 3

    def test_overlap_counts_as_trivial(self):
        d = Digraph.from_arcs(3, [])
        assert max_disjoint_ST_paths_bruteforce(d, [0, 1], [1, 2]) == 1

    @pytest.mark.parametrize("sources, sinks", [([-1], [1]), ([0], [7]),
                                                 ([0], [-4])])
    def test_terminals_out_of_range(self, sources, sinks):
        # -1 would alias vertex 3 of the 4-cycle, and 7 would index past it.
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match="out of range"):
            max_disjoint_ST_paths_bruteforce(d, sources, sinks)

    def test_terminals_must_be_integers(self):
        d = complete_digraph(4)
        with pytest.raises(ValueError, match="not an integer"):
            max_disjoint_ST_paths_bruteforce(d, [0.5], [2])
        with pytest.raises(ValueError, match="not an integer"):
            max_disjoint_ST_paths_bruteforce(d, [0], ["2"])

    def test_bool_terminals_rejected_like_the_flow(self):
        # True is no vertex id: the reference rejects it as the flow does,
        # where it counted as vertex 1 of the circulant.
        d = rotational_tournament(7)
        with pytest.raises(ValueError, match="terminal True is not an integer"):
            max_disjoint_ST_paths_bruteforce(d, [True], [3])
        with pytest.raises(ValueError, match="terminal True is not an integer"):
            max_disjoint_paths(d, [True], [3])
        with pytest.raises(ValueError, match="terminal True is not an integer"):
            exists_disjoint_linkage(d, [(True, 3)])

    def test_instance_size_guard(self):
        with pytest.raises(ValueError, match="too large"):
            max_disjoint_ST_paths_bruteforce(complete_digraph(13), [0], [1])

    def test_no_route(self):
        d = Digraph.from_arcs(4, [(3, 0)])
        assert max_disjoint_ST_paths_bruteforce(d, [0], [3]) == 0

    def test_agrees_with_itself_under_source_order(self):
        for seed in range(10):
            d = random_digraph(9, 0.5, seed=900 + seed)
            a = max_disjoint_ST_paths_bruteforce(d, [0, 1, 2], [6, 7, 8])
            b = max_disjoint_ST_paths_bruteforce(d, [2, 1, 0], [8, 6, 7])
            assert a == b


# -- plain references: the list-based searches the bitset oracles replaced -----------

class _PlainExhausted(Exception):
    pass


@dataclass
class _PlainSearch:
    adj: np.ndarray
    pairs: list
    budget: OracleBudget
    deadline: float = 0.0
    nodes: int = 0
    result: list | None = None

    def run(self) -> OracleAnswer:
        self.deadline = time.monotonic() + self.budget.time_limit
        partial = [[x] for x, _ in self.pairs]
        try:
            found = self._extend(partial, 0)
        except _PlainExhausted:
            return OracleAnswer("unknown", nodes_explored=self.nodes)
        if found:
            return OracleAnswer("yes", tuple(tuple(p) for p in self.result), self.nodes)
        return OracleAnswer("no", nodes_explored=self.nodes)

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes >= self.budget.node_limit:
            raise _PlainExhausted
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _PlainExhausted

    def _reachable(self, start, goal, blocked) -> bool:
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

    def _extend(self, partial, i) -> bool:
        k = len(self.pairs)
        if i == k:
            self.result = [list(p) for p in partial]
            return True
        self._tick()
        used = {v for p in partial for v in p}
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


def plain_exists_disjoint_linkage(d, pairs, budget=None) -> OracleAnswer:
    terms = [t for pair in pairs for t in pair]
    if len(set(terms)) != len(terms):
        return OracleAnswer("no")
    return _PlainSearch(d.adjacency, list(pairs), budget or OracleBudget()).run()


def plain_max_disjoint_ST_paths_bruteforce(d, sources, sinks) -> int:
    """Every path of each source listed up front, no stop at the bound."""
    src = sorted(set(int(v) for v in sources))
    snk = set(int(v) for v in sinks)
    adj = d.adjacency
    overlap = [v for v in src if v in snk]
    src = [v for v in src if v not in snk]
    free_snk = snk - set(overlap)
    best = 0

    def paths_from(s, used):
        out = []
        stack = [(s,)]
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

    def search(idx, used, count):
        nonlocal best
        best = max(best, count)
        if idx == len(src):
            return
        remaining_sinks = len([t for t in free_snk if t not in used])
        if count + min(len(src) - idx, remaining_sinks) <= best:
            return
        for p in paths_from(src[idx], used):
            search(idx + 1, used | frozenset(p), count + 1)
        search(idx + 1, used, count)

    search(0, frozenset(), 0)
    return best + len(overlap)


@st.composite
def _small_digraphs(draw):
    n = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 10 ** 6))
    kind = draw(st.sampled_from(["general", "tournament", "semicomplete"]))
    if kind == "tournament":
        return random_tournament(n, seed=seed)
    if kind == "semicomplete":
        return random_semicomplete(n, draw(st.sampled_from([0.1, 0.3, 0.6])), seed=seed)
    return random_digraph(n, draw(st.sampled_from([0.15, 0.35, 0.6, 0.85])), seed=seed)


@st.composite
def _linkage_queries(draw):
    d = draw(_small_digraphs())
    k = draw(st.integers(1, 3))
    if 2 * k <= d.n and draw(st.integers(0, 3)):
        ends = draw(st.permutations(range(d.n)))[:2 * k]
        pairs = list(zip(ends[:k], ends[k:]))
    else:
        # Terminals may repeat across pairs (a "no" before any search); a
        # pair's own ends differ, since a degenerate pair is an error.
        vertex = st.integers(0, d.n - 1)
        pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, min_size=k, max_size=k))
    limit = draw(st.one_of(st.none(), st.integers(1, 12), st.integers(13, 3000)))
    return d, pairs, None if limit is None else OracleBudget(node_limit=limit)


@given(_linkage_queries())
@settings(max_examples=400, deadline=None)
def test_linkage_matches_plain_search(query):
    d, pairs, budget = query
    got = exists_disjoint_linkage(d, pairs, budget)
    want = plain_exists_disjoint_linkage(d, pairs, budget)
    assert (got.verdict, got.paths, got.nodes_explored) == \
        (want.verdict, want.paths, want.nodes_explored)


@given(_small_digraphs(), st.data())
@settings(max_examples=400, deadline=None)
def test_path_count_matches_plain_listing(d, data):
    # Repeated terminals and sources that are also sinks included.
    ends = st.lists(st.integers(0, d.n - 1), min_size=1, max_size=5)
    sources, sinks = data.draw(ends), data.draw(ends)
    assert max_disjoint_ST_paths_bruteforce(d, sources, sinks) == \
        plain_max_disjoint_ST_paths_bruteforce(d, sources, sinks)
