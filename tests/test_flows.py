import ast
import hashlib
import itertools
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import semilink.flows as flows
from semilink.digraph import Digraph
from semilink.flows import (FlowInfeasible, is_k_connected, local_cut,
                            max_disjoint_paths, min_weight_disjoint_paths,
                            vertex_connectivity)
from semilink.generators import (near_regular_tournament, random_semicomplete,
                                 random_tournament, rotational_tournament,
                                 transitive_tournament)
from semilink.oracle import max_disjoint_ST_paths_bruteforce

from conftest import complete_digraph, random_digraph, run_optimized


def family_path_exists(d, sources, sinks, removed):
    """A source-to-sink path avoiding ``removed``, interior off terminals."""
    sources = [s for s in sources if s not in removed]
    sinks = set(sinks)
    seen = set(sources)
    stack = list(sources)
    while stack:
        u = stack.pop()
        if u in sinks and u not in removed:
            return True
        for w in np.flatnonzero(d.adjacency[u]):
            w = int(w)
            if w in removed or w in seen:
                continue
            if w in sinks:
                return True
            if w in sources:
                continue
            seen.add(w)
            stack.append(w)
    return False


def brute_min_separator(d, sources, sinks):
    """Smallest vertex set meeting every family path (may include terminals)."""
    assert not set(sources) & set(sinks)
    for size in range(d.n + 1):
        for cand in itertools.combinations(range(d.n), size):
            if not family_path_exists(d, sources, sinks, set(cand)):
                return size
    return d.n


class TestMaxDisjointPaths:
    def test_complete_digraph_single_arcs(self):
        d = complete_digraph(6)
        system, cert = max_disjoint_paths(d, [0, 1], [4, 5], cap=2)
        assert len(system) == 2 and cert is None
        assert all(p.length == 1 for p in system)

    def test_bottleneck(self):
        d = Digraph.from_arcs(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        system, cert = max_disjoint_paths(d, [0, 1], [3, 4])
        assert len(system) == 1
        assert cert is not None and cert.separator == frozenset({2})

    def test_matches_bruteforce_on_random_tournaments(self):
        for seed in range(15):
            d = random_tournament(12, seed=seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            verts = rng.permutation(12)
            S = [int(v) for v in verts[:3]]
            T = [int(v) for v in verts[3:6]]
            system, _ = max_disjoint_paths(d, S, T)
            assert len(system) == max_disjoint_ST_paths_bruteforce(d, S, T)

    def test_paths_touch_terminals_only_at_endpoints(self):
        for seed in range(10):
            d = random_digraph(10, 0.5, seed=100 + seed)
            S, T = [0, 1, 2], [7, 8, 9]
            system, _ = max_disjoint_paths(d, S, T)
            for p in system:
                assert p.first in S and p.last in T
                assert not (set(p.interior()) & (set(S) | set(T)))

    def test_overlap_becomes_trivial_paths(self):
        d = complete_digraph(5)
        system, _ = max_disjoint_paths(d, [0, 1], [1, 2], cap=2)
        assert any(p.vertices == (1,) for p in system)
        assert len(system) == 2

    def test_empty_terminals_rejected(self):
        with pytest.raises(ValueError):
            max_disjoint_paths(complete_digraph(4), [], [1])

    def test_duality_against_brute_separator(self):
        cases = []
        for seed in range(14):
            cases.append((random_digraph(8, 0.35, seed=seed), [0, 1], [6, 7]))
        cases.append((transitive_tournament(7), [5, 6], [0, 1]))
        cases.append((complete_digraph(5), [0], [4]))
        for d, S, T in cases:
            system, cert = max_disjoint_paths(d, S, T, cap=d.n)
            assert cert is not None
            assert len(cert.separator) == len(system)
            assert len(system) == brute_min_separator(d, S, T)
            # removing the separator really cuts every family path
            assert not family_path_exists(d, S, T, set(cert.separator))

    def test_cut_sides_partition(self):
        d = random_digraph(9, 0.3, seed=77)
        system, cert = max_disjoint_paths(d, [0, 1], [7, 8], cap=9)
        assert cert is not None
        pieces = cert.separator | cert.source_side | cert.sink_side
        assert pieces == frozenset(range(9))
        assert not (cert.separator & cert.source_side)
        assert not (cert.source_side & cert.sink_side)


class TestMinWeightDisjointPaths:
    def test_complete_digraph_all_arcs(self):
        d = complete_digraph(8)
        system = min_weight_disjoint_paths(d, [0, 1, 2], [5, 6, 7], count=3)
        assert system.total_vertices() == 6

    def test_layered_instance_forces_two_arc_path(self):
        # sources 0,1; sinks 5,6; 0->5 direct, 1 must route through 3.
        d = Digraph.from_arcs(7, [(0, 5), (1, 3), (3, 6), (2, 4)])
        system = min_weight_disjoint_paths(d, [0, 1], [5, 6], count=2)
        assert system.total_vertices() == 5  # 2*count + 1, frozen by enumeration
        assert enumerate_min_total(d, [0, 1], [5, 6], count=2) == 5

    def test_infeasible_raises_with_cut(self):
        d = Digraph.from_arcs(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        with pytest.raises(FlowInfeasible) as exc:
            min_weight_disjoint_paths(d, [0, 1], [3, 4], count=2)
        assert exc.value.achieved == 1
        assert exc.value.cut.separator == frozenset({2})

    def test_never_heavier_than_plain_max_flow(self):
        for seed in range(12):
            d = random_tournament(11, seed=200 + seed)
            S, T = [0, 1], [9, 10]
            plain, cert = max_disjoint_paths(d, S, T, cap=2)
            if len(plain) < 2:
                continue
            optimal = min_weight_disjoint_paths(d, S, T, count=2)
            assert optimal.total_vertices() <= plain.total_vertices()
            assert optimal.total_vertices() == \
                enumerate_min_total(d, S, T, count=2)

    def test_minimality_of_each_path(self):
        for seed in range(8):
            d = random_tournament(12, seed=300 + seed)
            system = min_weight_disjoint_paths(d, [0, 1, 2], [9, 10, 11], count=3)
            for p in system:
                for i in range(len(p.vertices)):
                    for j in range(i + 2, len(p.vertices)):
                        assert not d.has_arc(p.vertices[i], p.vertices[j])


def enumerate_min_total(d, sources, sinks, count):
    """Exhaustive minimum of the total vertex count over count-path systems."""
    best = [None]

    def all_paths_from(s, used):
        out = []
        stack = [(s,)]
        while stack:
            p = stack.pop()
            for w in np.flatnonzero(d.adjacency[p[-1]]):
                w = int(w)
                if w in used or w in p or w in sources:
                    continue
                if w in sinks:
                    out.append(p + (w,))
                else:
                    stack.append(p + (w,))
        return out

    def rec(srcs, used, chosen):
        if chosen == count:
            total = len(used)
            if best[0] is None or total < best[0]:
                best[0] = total
            return
        if not srcs:
            return
        s, rest = srcs[0], srcs[1:]
        for p in all_paths_from(s, used):
            rec(rest, used | set(p), chosen + 1)
        rec(rest, used, chosen)

    rec(list(sources), frozenset(), 0)
    return best[0]


class TestLocalCut:
    def test_no_path_means_zero(self):
        tt5 = transitive_tournament(5)
        assert local_cut(tt5, 4, 0).value == 0

    def test_complete_digraph(self):
        d = complete_digraph(5)
        res = local_cut(d, 0, 4)
        assert res.value == 4 and res.direct_arc

    def test_circulant_pairs_meet_floor(self):
        d = rotational_tournament(9)
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(10):
            u, v = map(int, rng.choice(9, size=2, replace=False))
            assert local_cut(d, u, v).value >= 3

    def test_identical_vertices_rejected(self):
        with pytest.raises(ValueError):
            local_cut(complete_digraph(3), 1, 1)
        d = rotational_tournament(7)
        with pytest.raises(ValueError, match="range"):
            local_cut(d, 0, 9)

    def test_paths_are_internally_disjoint_and_valid(self):
        d = random_tournament(10, seed=9)
        res = local_cut(d, 0, 5)
        interiors = [set(p.vertices[1:-1]) for p in res.paths]
        for a, b in itertools.combinations(range(len(interiors)), 2):
            assert not interiors[a] & interiors[b]
        assert len(res.paths) == res.value

    def test_separator_size_equals_value(self):
        for seed in range(10):
            d = random_digraph(9, 0.4, seed=400 + seed)
            res = local_cut(d, 0, 8)
            if res.separator is not None and not res.direct_arc:
                assert len(res.separator) == res.value


def brute_vertex_connectivity(d):
    n = d.n
    for size in range(n - 1):
        for cand in itertools.combinations(range(n), size):
            rem = [v for v in range(n) if v not in cand]
            if len(rem) < 2:
                continue
            sub = d.induced(rem).adjacency
            m = len(rem)
            reach = np.eye(m, dtype=bool) | sub
            for _ in range(m):
                reach = reach | (reach.astype(np.int8) @ reach.astype(np.int8) > 0)
            if not reach.all():
                return size
    return n - 1


class TestVertexConnectivity:
    def test_transitive_is_disconnected(self):
        assert vertex_connectivity(transitive_tournament(6)) == 0

    def test_complete_biorientation(self):
        assert vertex_connectivity(complete_digraph(5)) == 4

    def test_against_bruteforce(self):
        for seed in range(6):
            d = random_tournament(7, seed=500 + seed)
            assert vertex_connectivity(d) == brute_vertex_connectivity(d)
        for seed in range(4):
            d = random_digraph(6, 0.5, seed=600 + seed)
            assert vertex_connectivity(d) == brute_vertex_connectivity(d)

    def test_bounded_by_semidegree(self):
        for seed in range(5):
            d = random_tournament(11, seed=seed)
            assert vertex_connectivity(d) <= d.min_semidegree()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            vertex_connectivity(Digraph.from_arcs(1, []))


class TestIsKConnected:
    def test_circulant_fifteen_is_five_connected(self):
        assert is_k_connected(rotational_tournament(15), 5)

    def test_transitive_is_not_one_connected(self):
        assert not is_k_connected(transitive_tournament(5), 1)

    def test_order_requirement(self):
        assert not is_k_connected(complete_digraph(4), 4)
        assert is_k_connected(complete_digraph(5), 4)

    def test_nonpositive_k(self):
        assert is_k_connected(complete_digraph(2), 0)

    def test_agrees_with_exact_value(self):
        for seed in range(5):
            d = random_tournament(9, seed=700 + seed)
            kappa = vertex_connectivity(d)
            for k in range(0, kappa + 2):
                assert is_k_connected(d, k) == (d.n >= k + 1 and kappa >= k)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(0, 10 ** 6), st.integers(5, 8))
@settings(max_examples=60, deadline=None)
def test_menger_equality_property(seed, n):
    from semilink.oracle import max_disjoint_ST_paths_bruteforce
    d = random_digraph(n, 0.45, seed)
    system, cert = max_disjoint_paths(d, [0, 1], [n - 2, n - 1], cap=n)
    assert len(system) == max_disjoint_ST_paths_bruteforce(
        d, [0, 1], [n - 2, n - 1])
    assert cert is not None and len(cert.separator) == len(system)


def _isolated(d: Digraph, fb) -> Digraph:
    """``d`` with every arc at the vertices of ``fb`` removed, so that no
    u->v path passes them, as if the flow kernel forbade them."""
    adj = d.adjacency.copy()
    adj[fb] = False
    adj[:, fb] = False
    return Digraph(adj, copy=False)


def _kernel_outputs(count: int = 300) -> list:
    """Every output of the three flow entry points on a seeded corpus.

    Values, separators, cut sides and path vertex tuples, so any change in
    the kernel's lowest-id tie-breaking shows up.  Forbidden sets never
    contain a query's terminals.
    """
    def cut(c):
        return None if c is None else (
            tuple(sorted(c.separator)), tuple(sorted(c.source_side)),
            tuple(sorted(c.sink_side)))

    out = []
    for i in range(count):
        rng = np.random.Generator(np.random.PCG64(7_000 + i))
        n = int(rng.integers(2, 16))
        if i % 3 == 0:
            d = random_tournament(n, seed=7_000 + i)
        else:
            d = random_digraph(n, float(rng.choice([0.2, 0.4, 0.6, 0.8])), seed=7_000 + i)
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        fb = [w for w in range(n) if w not in (u, v) and rng.random() < 0.2]
        cap = int(rng.integers(1, n + 1))
        for g, kw in ((d, {}), (d, {"cap": cap}), (_isolated(d, fb), {}),
                      (_isolated(d, fb), {"cap": cap})):
            r = local_cut(g, u, v, **kw)
            out.append(("cut", r.value,
                        None if r.separator is None else tuple(sorted(r.separator)),
                        tuple(p.vertices for p in r.paths), r.direct_arc))
        src = [int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        snk = [int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        fb = [w for w in range(n) if w not in src and w not in snk and rng.random() < 0.2]
        for kw in ({"forbidden": fb}, {"cap": cap}):
            system, cert = max_disjoint_paths(d, src, snk, **kw)
            out.append(("max", tuple(p.vertices for p in system), cut(cert)))
        for want in (int(rng.integers(1, min(len(src), len(snk)) + 1)),
                     min(len(src), len(snk))):
            try:
                system = min_weight_disjoint_paths(d, src, snk, want, forbidden=fb)
                out.append(("min", tuple(p.vertices for p in system)))
            except FlowInfeasible as exc:
                out.append(("infeasible", exc.achieved, cut(exc.cut)))
    return out


def test_kernel_tie_breaks_golden():
    import hashlib
    outputs = _kernel_outputs()
    # the corpus exercises FlowInfeasible cuts
    assert sum(1 for r in outputs if r[0] == "infeasible") > 20
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "cda34d852482881513de4ee645b33370f32ba21eb27ba369d9c585757365ebd7"


def _cut_row(r) -> tuple:
    return (r.value, None if r.separator is None else tuple(sorted(r.separator)),
            tuple(p.vertices for p in r.paths), r.direct_arc)


def test_kernel_golden_at_scale():
    d = near_regular_tournament(251, seed=5)
    rng = np.random.Generator(np.random.PCG64(251))
    rows = []
    for _ in range(10):
        u, v = (int(x) for x in rng.choice(251, size=2, replace=False))
        fb = [int(w) for w in rng.choice(251, size=60, replace=False) if w not in (u, v)]
        for g, kw in ((d, {}), (d, {"cap": 5}), (_isolated(d, fb), {})):
            rows.append(_cut_row(local_cut(g, u, v, **kw)))
    verts = [int(x) for x in rng.permutation(251)]
    rows.append(tuple(p.vertices for p in min_weight_disjoint_paths(
        d, verts[:12], verts[12:24], 12)))
    rows.append(tuple(p.vertices for p in min_weight_disjoint_paths(
        d, verts[:6], verts[6:12], 6, forbidden=verts[200:])))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "c56f35ae7ea616985897d24b674462980462fbcddbf9b784b7ff5878de4edb44"


def test_reference_instance_cut_golden(reference_counterexample):
    d = reference_counterexample[0]
    rows = [_cut_row(local_cut(d, 1500, 1123)), _cut_row(local_cut(d, 1500, 1123, cap=85))]
    assert [r[0] for r in rows] == [756, 85]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "f41e809d60f7b4cc81fa9e723391b26dce7f2419ddcea2d2fb07d106730542f3"


@pytest.fixture
def bfs_calls(monkeypatch):
    """One entry per ``_SplitFlow._bfs`` call."""
    calls = []
    real = flows._SplitFlow._bfs

    def counting(self, *args, **kwargs):
        calls.append(None)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(flows._SplitFlow, "_bfs", counting)
    return calls


def test_pinned_bfs_counts(reference_counterexample, bfs_calls):
    d = reference_counterexample[0]
    # 377 of the 756 paths have two arcs and need no BFS; the other 379 take
    # one each, then one BFS fails and its visited sets give the cut.
    assert local_cut(d, 1500, 1123).value == 756 and len(bfs_calls) == 380
    del bfs_calls[:]
    assert local_cut(d, 1500, 1123, cap=85).value == 85 and bfs_calls == []


def test_pinned_phase_counts(reference_counterexample, bfs_calls):
    d = reference_counterexample[0]
    # After the same 377 two-arc paths, 285 three-arc paths go in one step;
    # the other 94 take two layered searches, each with its blocking flow,
    # and the third search fails.
    assert flows._cut_value(d, 1500, 1123) == 756 and len(bfs_calls) == 3
    del bfs_calls[:]
    # 426 two-arc paths, then all 330 others in the three-arc step; only
    # the failing search is left.
    assert flows._cut_value(d, 901, 475) == 756 and len(bfs_calls) == 1


def _flow_links(fl) -> tuple:
    return (fl.pred.tolist(), fl.succ.tolist(), fl.internal_flow.tolist(),
            fl.load, fl.open_src.tolist(), fl.open_snk.tolist())


def first_phase(fl, cap: int) -> int:
    """The first phase of ``run_phases`` if its paths have three arcs, else nothing."""
    lev_in, lev_out = np.full(fl.n, -1), np.full(fl.n, -1)
    seq = fl._bfs(levels=(lev_in, lev_out))
    if seq is None or len(seq) != 6:
        return 0
    return fl._blocking_flow(lev_in, lev_out, 5, cap)


def _assert_step_is_first_phase(d, u, v, cap) -> int:
    direct, budget, got, fl = flows._pair_flow(d, u, v, cap)
    if fl is None or got == budget:
        return 0
    ref = flows._pair_flow(d, u, v, cap)[3]
    pushed = fl.push_three_arc_paths(budget - got)
    assert pushed == first_phase(ref, budget - got)
    assert _flow_links(fl) == _flow_links(ref)
    return pushed


@given(st.integers(0, 10 ** 6), st.integers(3, 24),
       st.sampled_from(["digraph", "tournament", "semicomplete"]),
       st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 24))
@settings(max_examples=200, deadline=None)
def test_three_arc_step_is_the_first_phase(seed, n, kind, density, cap):
    # The step leaves the flow links, the loads and the open terminals that
    # the first blocking flow leaves, with or without a cap.
    d = {"digraph": lambda: random_digraph(n, density, seed),
         "tournament": lambda: random_tournament(n, seed),
         "semicomplete": lambda: random_semicomplete(n, density, seed)}[kind]()
    rng = np.random.Generator(np.random.PCG64(seed))
    u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
    _assert_step_is_first_phase(d, u, v, cap or None)


def test_three_arc_step_is_the_first_phase_at_scale(reference_counterexample):
    d = reference_counterexample[0]
    pushed = [_assert_step_is_first_phase(d, u, v, cap)
              for u, v, cap in ((1500, 1123, None), (901, 475, None), (1500, 1123, 500))]
    assert pushed == [285, 330, 123]


@st.composite
def _capped_pairs(draw):
    """A tournament or semicomplete digraph, a pair with or without the arc
    u->v, and a cap that is absent, or stops the query inside the two-arc
    step, inside the three-arc step, or anywhere."""
    n = draw(st.integers(4, 24))
    seed = draw(st.integers(0, 10 ** 6))
    d = random_tournament(n, seed) if draw(st.booleans()) else \
        random_semicomplete(n, draw(st.sampled_from([0.1, 0.4, 0.8])), seed)
    u, v = draw(st.permutations(range(n)))[:2]
    if d.has_arc(u, v) != draw(st.booleans()):
        u, v = v, u
    direct, _, two, fl = flows._pair_flow(d, u, v, None)
    three = fl.push_three_arc_paths(n)
    stop = draw(st.sampled_from(["none", "two", "three", "any"]))
    if stop == "two" and two:
        cap = draw(st.integers(direct + 1, direct + two))
    elif stop == "three" and three:
        cap = draw(st.integers(direct + two + 1, direct + two + three))
    else:
        cap = None if stop != "any" else draw(st.integers(1, n))
    return d, u, v, cap


@given(_capped_pairs())
@settings(max_examples=200, deadline=None)
def test_cut_value_matches_bfs_kernel_and_networkx(query):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity
    d, u, v, cap = query
    g = nx.DiGraph()
    g.add_nodes_from(range(d.n))
    g.add_edges_from(zip(*(x.tolist() for x in d.adjacency.nonzero())))
    want = local_node_connectivity(g, u, v)  # the arc u->v counts as one path
    if cap is not None:
        want = min(want, cap)
    assert flows._cut_value(d, u, v, cap) == local_cut(d, u, v, cap).value == want


def four_pass_bellman(fl):
    """Reference relaxation: four passes per sweep, one per residual arc family.

    Internal arcs forward (+1) and backward (-1), original arcs (0, through
    an n x n float matrix) and reversed flow arcs (0), until nothing changes.
    """
    inf, n = np.inf, fl.n
    dist_in = np.full(n, inf)
    dist_out = np.full(n, inf)
    dist_out[fl.open_src] = 0.0
    internal_ok = fl.passable & ~fl.internal_flow
    heads = (fl.pred >= 0).nonzero()[0]
    tails = fl.pred[heads]
    for _ in range(2 * n + 4):
        old = dist_in.copy(), dist_out.copy()
        dist_out = np.minimum(dist_out, np.where(internal_ok, dist_in + 1, inf))
        dist_in = np.minimum(dist_in, np.where(fl.internal_flow, dist_out - 1, inf))
        dist_in = np.minimum(dist_in, np.where(fl.adj, dist_out[:, None], inf).min(axis=0))
        cand = np.full(n, inf)
        cand[tails] = dist_in[heads]
        dist_out = np.minimum(dist_out, cand)
        if np.array_equal(old[0], dist_in) and np.array_equal(old[1], dist_out):
            return dist_in, dist_out
    raise AssertionError("reference relaxation failed to converge")


@given(st.integers(0, 10 ** 6), st.integers(3, 20),
       st.sampled_from([0.05, 0.15, 0.3, 0.6, 0.9]), st.sampled_from([0.0, 0.2]),
       st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_bellman_matches_four_pass_sweep(seed, n, density, forbid, extra):
    d = random_digraph(n, density, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    verts = [int(v) for v in rng.permutation(n)]
    a = int(rng.integers(1, n // 2 + 1))
    b = int(rng.integers(1, n - a + 1))
    src, snk = verts[:a], verts[a:a + b]
    fb = [w for w in verts[a + b:] if rng.random() < forbid]
    real = flows._SplitFlow._bellman
    real_direct = flows._SplitFlow.push_direct_arcs
    calls = []

    def compared(self):
        got, want = real(self), four_pass_bellman(self)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        calls.append(None)
        return got

    def direct_then_compared(self, count):
        # An all-direct query makes no relaxation of its own, so the state
        # the direct step leaves is compared in every example.
        pushed = real_direct(self, count)
        compared(self)
        return pushed

    # extra > 0 asks for more paths than there are terminals: infeasible
    count = min(a, b) + extra
    with mock.patch.object(flows._SplitFlow, "_bellman", compared), \
            mock.patch.object(flows._SplitFlow, "push_direct_arcs", direct_then_compared):
        try:
            min_weight_disjoint_paths(d, src, snk, count, forbidden=fb)
        except FlowInfeasible as exc:
            assert exc.achieved < count
    assert calls


def plain_min_cost(fl, count):
    """The min-cost loop with no direct step: one relaxation and one tight
    BFS for every unit, one-arc paths included."""
    for achieved in range(count):
        dist_in, dist_out = fl._bellman()
        if not (dist_in[fl.open_snk] < np.inf).any():
            if fl._bfs() is not None:
                raise AssertionError("cost relaxation missed an augmenting path")
            raise FlowInfeasible(achieved, fl.cut_certificate())
        seq = fl._bfs(dist_in, dist_out)
        if seq is None:
            raise AssertionError("tight BFS must reach a cheapest sink")
        fl._augment(seq)


def _min_cost_row(d, src, snk, count, fb) -> tuple:
    """Paths of a min-cost query, or its achieved count and cut sides."""
    try:
        system = min_weight_disjoint_paths(d, src, snk, count, forbidden=fb)
    except FlowInfeasible as exc:
        c = exc.cut
        return ("infeasible", exc.achieved, sorted(c.separator), sorted(c.source_side),
                sorted(c.sink_side))
    return ("paths", tuple(p.vertices for p in system))


@given(st.integers(0, 10 ** 6), st.integers(2, 14),
       st.sampled_from(["digraph", "tournament", "semicomplete"]),
       st.sampled_from([0.1, 0.3, 0.6, 0.9]), st.sampled_from([0.0, 0.25]),
       st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_min_cost_matches_plain_loop(seed, n, kind, density, forbid, extra):
    if kind == "tournament":
        d = random_tournament(n, seed=seed)
    elif kind == "semicomplete":
        d = random_semicomplete(n, density, seed)
    else:
        d = random_digraph(n, density, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    # drawn independently, so sources and sinks may overlap
    src = [int(v) for v in rng.choice(n, size=int(rng.integers(1, n // 2 + 2)), replace=False)]
    snk = [int(v) for v in rng.choice(n, size=int(rng.integers(1, n // 2 + 2)), replace=False)]
    fb = [w for w in range(n) if w not in src and w not in snk and rng.random() < forbid]
    # extra > 0 may ask for more paths than exist: infeasible
    count = int(rng.integers(1, min(len(src), len(snk)) + 1)) + extra
    got = _min_cost_row(d, src, snk, count, fb)
    with mock.patch.object(flows._SplitFlow, "run_min_cost", plain_min_cost):
        assert got == _min_cost_row(d, src, snk, count, fb)


def test_direct_step_leaves_the_reroute_to_the_loop(bellman_calls):
    # The direct step takes 0->2, the lowest sink's lowest source; 1 then
    # reaches sink 3 only through the cost-0 reroute 1->2, back to 0, 0->3.
    d = Digraph.from_arcs(4, [(0, 2), (1, 2), (0, 3)])
    system = min_weight_disjoint_paths(d, [0, 1], [2, 3], 2)
    assert [p.vertices for p in system] == [(0, 3), (1, 2)] and len(bellman_calls) == 1
    with mock.patch.object(flows._SplitFlow, "run_min_cost", plain_min_cost):
        plain = min_weight_disjoint_paths(d, [0, 1], [2, 3], 2)
    assert [p.vertices for p in plain] == [(0, 3), (1, 2)]


def test_min_cost_query_allocates_no_float_matrix():
    # One query at n=1000 peaks below 5 n^2 bytes: the adjacency copy and
    # boolean frontier blocks, no n x n float64 relaxation matrix.
    n = 1000
    d = random_tournament(n, seed=3)
    verts = [int(v) for v in np.random.Generator(np.random.PCG64(3)).permutation(n)]
    tracemalloc.start()
    try:
        system = min_weight_disjoint_paths(d, verts[:20], verts[20:40], 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(system) == 20
    assert peak < 5 * n * n, peak


@pytest.fixture
def cancelled_internal(monkeypatch):
    """One entry per augmenting step that cancels a vertex's internal flow."""
    steps = []
    real = flows._SplitFlow._augment

    def counting(self, seq):
        steps.extend(v1 for (k1, v1), (k2, v2) in zip(seq, seq[1:])
                     if k1 == "out" and v1 == v2)
        return real(self, seq)

    monkeypatch.setattr(flows._SplitFlow, "_augment", counting)
    return steps


def test_augment_cancels_internal_flow(cancelled_internal):
    # A seeded sparse digraph whose second augmenting path backs out of a
    # vertex the first one crossed; dense inputs essentially never do this.
    d = random_digraph(11, 0.12, 2501)
    S, T = [6, 4], [10, 8]
    assert max_disjoint_ST_paths_bruteforce(d, S, T) == 2
    system, cert = max_disjoint_paths(d, S, T)
    assert len(system) == 2 and cert is None and cancelled_internal
    del cancelled_internal[:]
    system = min_weight_disjoint_paths(d, S, T, 2)
    assert len(system) == 2 and cancelled_internal
    assert system.total_vertices() == enumerate_min_total(d, S, T, count=2)


def brute_local_cut(d, u, v, forbidden):
    """The local_cut value by separator enumeration: a smallest set of allowed
    non-terminals meeting every u->v path other than the arc, plus that arc."""
    adj = d.adjacency.copy()
    adj[u, v] = False
    g = Digraph(adj)
    inner = [w for w in range(d.n) if w not in (u, v) and w not in forbidden]
    for size in range(len(inner) + 1):
        for cand in itertools.combinations(inner, size):
            if not family_path_exists(g, [u], [v], set(cand) | set(forbidden)):
                return size + int(d.has_arc(u, v))
    raise AssertionError("removing every allowed vertex must cut u from v")


@given(st.integers(0, 10 ** 6), st.integers(2, 10), st.booleans(),
       st.sampled_from([0.3, 0.6, 0.85, 0.95]), st.integers(0, 10),
       st.sampled_from([0.0, 0.2]))
@settings(max_examples=150, deadline=None)
def test_local_cut_matches_separator_enumeration(seed, n, semicomplete, density,
                                                 cap, forbid):
    d = random_semicomplete(n, density, seed) if semicomplete else random_digraph(n, density, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
    fb = [w for w in range(n) if w not in (u, v) and rng.random() < forbid]
    cap = cap or None  # 0 draws the uncapped query
    res = local_cut(_isolated(d, fb), u, v, cap=cap)
    with mock.patch.object(flows._SplitFlow, "push_two_arc_paths", lambda self, cap: 0):
        plain = local_cut(_isolated(d, fb), u, v, cap=cap)
    # the warm start changes nothing: not the flow, not the paths, not the cut
    assert _cut_row(res) == _cut_row(plain)
    true = brute_local_cut(d, u, v, fb)
    assert res.value == (true if cap is None else min(cap, true))
    assert len(res.paths) == res.value
    interiors = [set(p.vertices[1:-1]) for p in res.paths]
    assert len(set().union(*interiors)) == sum(map(len, interiors))
    assert not set().union(*interiors) & set(fb)
    if res.separator is not None:
        assert len(res.separator) == res.value - res.direct_arc
        adj = d.adjacency.copy()
        adj[u, v] = False
        assert not family_path_exists(Digraph(adj), [u], [v], res.separator | set(fb))


@given(st.integers(0, 10 ** 6), st.integers(2, 10), st.booleans(),
       st.sampled_from([0.15, 0.3, 0.6, 0.85, 0.95]), st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_cut_value_matches_local_cut_and_enumeration(seed, n, semicomplete, density, cap):
    d = random_semicomplete(n, density, seed) if semicomplete else random_digraph(n, density, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
    cap = cap or None  # 0 draws the uncapped query
    true = brute_local_cut(d, u, v, [])
    want = true if cap is None else min(cap, true)
    ref = local_cut(d, u, v, cap=cap)
    assert flows._cut_value(d, u, v, cap=cap) == ref.value == want
    # without the warm start the phases do all the work; the failing search
    # leaves the same cut as the BFS kernel's
    with mock.patch.object(flows._SplitFlow, "push_two_arc_paths", lambda self, cap: 0):
        direct, budget, got, fl = flows._pair_flow(d, u, v, cap)
        if fl is not None:
            got += fl.run_phases(budget)
            if got < budget:
                assert fl.cut_certificate().separator == ref.separator
        assert direct + got == want


@pytest.mark.parametrize("query", [
    lambda d, src, snk, fb: max_disjoint_paths(d, src, snk, forbidden=fb),
    lambda d, src, snk, fb: min_weight_disjoint_paths(d, src, snk, 1, forbidden=fb),
], ids=["max", "min_weight"])
@pytest.mark.parametrize("sinks", [[0], [3]], ids=["overlapping", "disjoint"])
@pytest.mark.parametrize("forbidden", [[99], [-1], [5, 7]])
def test_forbidden_out_of_range_rejected(query, sinks, forbidden):
    # terminals shared by both sides become one-vertex paths and build no
    # flow, so the check must not wait for one
    with pytest.raises(ValueError, match=rf"forbidden vertex {forbidden[-1]} out of range \(n=7\)"):
        query(rotational_tournament(7), [0], sinks, forbidden)


@pytest.mark.parametrize("query, match", [
    # each used to answer for the truncated ids: 0->3, (0, 4), vertex 1, vertex 2
    (lambda d: max_disjoint_paths(d, [0.7], [3.9]), "terminal 0.7 is not an integer"),
    (lambda d: local_cut(d, 0.2, 4.8), "terminal 0.2 is not an integer"),
    (lambda d: min_weight_disjoint_paths(d, [0, 1.5], [5, 6], 2),
     "terminal 1.5 is not an integer"),
    (lambda d: min_weight_disjoint_paths(d, [0, 1], [5, 6], 2, forbidden=[2.5]),
     "forbidden vertex 2.5 is not an integer"),
], ids=["max", "local_cut", "min_weight", "forbidden"])
def test_non_integer_ids_rejected(query, match):
    with pytest.raises(ValueError, match=match):
        query(rotational_tournament(9))


def test_numpy_integer_ids_accepted():
    d = rotational_tournament(9)
    assert local_cut(d, np.int64(0), np.int32(4)).value == local_cut(d, 0, 4).value


def test_integer_array_terminals_give_python_ints():
    # the shared terminal 0 leaves no sink for source 1, so the cut is read
    # off the terminal sets themselves
    _, cut = max_disjoint_paths(rotational_tournament(9), np.array([0, 1]), np.array([0]), cap=2)
    assert [type(v) for v in cut.source_side] == [int]


@pytest.mark.parametrize("query", [local_cut, flows._cut_value])
def test_cap_below_one_rejected(query):
    d = complete_digraph(4)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="cap"):
            query(d, 0, 1, cap=cap)


# -- the goodness screen in the connectivity deciders ---------------------------

def plain_vertex_connectivity(d):
    """The star loop with a capped cut on every ordered pair, no screen."""
    best = min(d.n - 1, d.min_semidegree())
    i = 0
    while i < d.n and i <= best:
        for w in range(d.n):
            if w != i:
                best = min(best, flows.local_cut(d, i, w, cap=best + 1).value)
                best = min(best, flows.local_cut(d, w, i, cap=best + 1).value)
        i += 1
    return best


def plain_is_k_connected(d, k):
    """k full stars of capped cuts, no semidegree test and no screen."""
    if d.n < k + 1:
        return False
    if k <= 0:
        return True
    return all(flows.local_cut(d, i, w, cap=k).value >= k
               and flows.local_cut(d, w, i, cap=k).value >= k
               for i in range(k) for w in range(d.n) if w != i)


@given(st.integers(0, 10 ** 6), st.integers(2, 8), st.booleans(),
       st.sampled_from([0.3, 0.6, 0.85, 0.95]))
@settings(max_examples=120, deadline=None)
def test_deciders_match_separator_enumeration(seed, n, semicomplete, density):
    d = random_semicomplete(n, density, seed) if semicomplete else random_digraph(n, density, seed)
    kappa = brute_vertex_connectivity(d)
    assert vertex_connectivity(d) == kappa
    for k in range(-1, n + 2):
        assert is_k_connected(d, k) == (n >= k + 1 and kappa >= k)


@pytest.fixture
def cut_calls(monkeypatch):
    """Every (u, v) handed to ``flows.local_cut`` or ``flows._cut_value``, in
    call order: the deciders cut through the latter, the plain star loops
    through the former."""
    calls = []
    for name in ("local_cut", "_cut_value"):
        real = getattr(flows, name)

        def counting(d, u, v, *args, real=real, **kwargs):
            calls.append((u, v))
            return real(d, u, v, *args, **kwargs)

        monkeypatch.setattr(flows, name, counting)
    return calls


def test_deciders_match_plain_star_loop(cut_calls):
    for seed, n, p in ((1, 20, 0.6), (2, 24, 0.8), (3, 30, 0.5), (6, 40, 0.3)):
        d = random_semicomplete(n, p, seed)
        del cut_calls[:]
        kappa = vertex_connectivity(d)
        screened = len(cut_calls)
        del cut_calls[:]
        assert plain_vertex_connectivity(d) == kappa
        assert screened < len(cut_calls) // 2  # the two-arc count settles pairs too
        for k in (kappa // 2, kappa + 1):
            assert is_k_connected(d, k) == plain_is_k_connected(d, k)
        for k in range(1, kappa + 2):
            assert is_k_connected(d, k) == (kappa >= k)


def test_pinned_cut_counts(cut_calls):
    d = near_regular_tournament(251, seed=1)
    assert is_k_connected(d, 5) and cut_calls == []
    adj = d.adjacency.copy()
    flip = np.flatnonzero(adj[125])[4:]  # out-degree 4
    adj[125, flip], adj[flip, 125] = False, True
    assert not is_k_connected(Digraph(adj), 5) and cut_calls == []
    r = rotational_tournament(21)
    assert vertex_connectivity(r) == 10 and len(cut_calls) == 180
    searched = list(cut_calls)
    del cut_calls[:]
    assert plain_vertex_connectivity(r) == 10 and len(cut_calls) == 440
    del cut_calls[:]
    # both deciders run the same star search, pair for pair
    assert is_k_connected(r, 10) and cut_calls == searched


def test_separator_found_by_first_cut(cut_calls):
    # Two complete digraphs on 11 vertices sharing 3: semidegree 10, kappa 3.
    adj = np.zeros((19, 19), dtype=bool)
    adj[:11, :11] = adj[8:, 8:] = True
    np.fill_diagonal(adj, False)
    d = Digraph(adj)
    assert d.min_semidegree() == 10
    assert not is_k_connected(d, 5) and cut_calls == [(0, 11)]
    del cut_calls[:]
    assert vertex_connectivity(d) == 3 and cut_calls == [(0, 11)]


def test_flow_invariants_survive_optimize():
    script = """
from semilink.digraph import Digraph, Path
from semilink.flows import _SplitFlow, _minimal_within
assert False, "assert statements must be stripped"
d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
stuck = _SplitFlow(d, [0], [2], d.n)
stuck._blocking_flow = lambda *args: 0
for check in (lambda: _SplitFlow(d, [0], [2], 1).cut_certificate(),
              lambda: _minimal_within(d, Path(d, (0, 1, 2)), {1}),
              lambda: stuck.run_phases(1)):
    try:
        check()
    except AssertionError:
        continue
    raise SystemExit("invariant check skipped")
"""
    proc = run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("module", sorted(
    Path(flows.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_assert_in_src(module):
    # python -O strips assert statements, so invariants raise AssertionError
    # explicitly instead.
    tree = ast.parse(module.read_text(), filename=str(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module.name}: bare assert on lines {lines}"


@pytest.mark.parametrize("module", sorted(
    Path(flows.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads_in_src(module):
    # Every setting of the library is an argument; none comes from the
    # environment.
    tree = ast.parse(module.read_text(), filename=str(module))
    names = ("environ", "getenv")
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             and isinstance(node.value, ast.Name) and node.value.id == "os"
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in names for alias in node.names)]
    assert lines == [], f"{module.name}: os.environ or os.getenv on lines {lines}"


def test_every_private_function_in_src_has_a_caller():
    # A module-level helper that nothing in src/ refers to any more is dead
    # code; it must go with its last caller.
    modules = {p.name: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(Path(flows.__file__).parent.glob("*.py"))}
    private = {(name, node.name) for name, tree in modules.items()
               for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.startswith("__")}
    referenced = set()
    for name, tree in modules.items():
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                ref = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if ref is not None and ref != owner:
                    referenced.add(ref)
    orphans = sorted(f"{name}:{fn}" for name, fn in private if fn not in referenced)
    assert orphans == [], f"private functions without a caller in src/: {orphans}"


def test_every_parameter_in_src_is_read():
    # A parameter that its body never reads is dead weight at every call
    # site.  One kept for a shared call signature is named with a leading
    # underscore; a method's receiver is exempt.
    unread = []
    for path in sorted(Path(flows.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        receivers = {id(fn.args.args[0]) for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for fn in cls.body
                     if isinstance(fn, ast.FunctionDef) and fn.args.args
                     and "staticmethod" not in map(ast.unparse, fn.decorator_list)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            unread += [f"{path.name}:{fn.lineno}:{p.arg}" for p in params
                       if p.arg not in read and not p.arg.startswith("_")
                       and id(p) not in receivers]
    assert unread == [], f"parameters never read in src/: {unread}"
