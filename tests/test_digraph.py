import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilink.digraph import (_MAX_ORDER, Digraph, Path, PathSystem, digraph_from_arc_list,
                              digraph_to_arc_list, is_semicomplete, is_tournament,
                              reduce_to_minimal_path)
from semilink.generators import (near_regular_tournament, random_tournament,
                                 rotational_tournament, transitive_tournament)

from conftest import (complete_digraph, plain_reduce_to_minimal_path,
                      plain_spanning_tournament, random_digraph)


def three_cycle():
    return Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


class TestPredicates:
    def test_complete_biorientation_is_semicomplete_not_tournament(self):
        d = complete_digraph(3)
        assert is_semicomplete(d)
        assert not is_tournament(d)

    def test_three_cycle_is_tournament(self):
        assert is_tournament(three_cycle())
        assert is_semicomplete(three_cycle())

    def test_missing_pair_is_not_semicomplete(self):
        d = Digraph.from_arcs(2, [])
        assert not is_semicomplete(d)

    def test_transitive_tournament_is_tournament(self):
        assert is_tournament(transitive_tournament(5))


class TestNeighbourhoods:
    def test_transitive_source_and_sink(self):
        tt4 = transitive_tournament(4)
        assert tt4.out_degrees().tolist() == [3, 2, 1, 0]
        assert tt4.in_degrees().tolist() == [0, 1, 2, 3]

    def test_three_cycle_degrees(self):
        d = three_cycle()
        assert d.out_degrees().tolist() == [1, 1, 1]
        assert d.in_degrees().tolist() == [1, 1, 1]
        assert d.min_semidegree() == 1

    def test_invalid_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex 3 out of range"):
            three_cycle().with_flipped_arc(0, 3)
        with pytest.raises(ValueError, match="vertex -1 out of range"):
            Path(three_cycle(), (-1,))  # a one-vertex path makes no arc check

    def test_non_integer_vertex_rejected(self):
        d = transitive_tournament(5)
        # these used to raise numpy's IndexError, or build the path 0 -> 1
        for query in (lambda: d.has_arc(0.5, 1), lambda: d.with_flipped_arc(0, 1.0),
                      lambda: Path(d, (0.5, 1.5)), lambda: d.induced([0, 1.5]),
                      lambda: Digraph.from_arcs(3, [(0.5, 1)]),
                      lambda: transitive_tournament([0.5, 1, 2]),
                      lambda: d.has_arc(True, 0), lambda: Path(d, (True, 2)),
                      lambda: Digraph.from_arcs(2.5, []), lambda: rotational_tournament(9.0),
                      lambda: near_regular_tournament(9.5, 1),
                      lambda: random_tournament(5.5, 1)):
            with pytest.raises(ValueError, match="is not an integer"):
                query()
        assert d.has_arc(np.int64(0), np.int32(1))
        assert Path(d, np.array([0, 2])).vertices == (0, 2)
        with pytest.raises(ValueError, match="vertex 5 out of range"):
            d.induced([0, 5])

    @pytest.mark.parametrize("u, v", [(-5, 2), (2, -5), (-1, 0), (5, 0), (0, 7)])
    def test_has_arc_out_of_range_rejected(self, u, v):
        # has_arc(-5, 2) would read the arc 0 -> 2
        with pytest.raises(ValueError, match="out of range"):
            transitive_tournament(5).has_arc(u, v)

    def test_min_degrees(self):
        assert transitive_tournament(6).min_out_degree() == 0
        with pytest.raises(ValueError):
            Digraph(np.zeros((0, 0), dtype=bool)).min_out_degree()


class TestSubgraphs:
    def test_induced_prefix_of_transitive(self):
        sub = transitive_tournament(5).induced([0, 1, 2])
        assert sub == transitive_tournament(3)

    def test_delete_nothing_is_identity(self):
        # deleting no vertex is the subgraph induced on every vertex
        d = random_tournament(8, seed=1)
        assert d.induced(range(8)) == d

    def test_single_vertex_induced(self):
        sub = random_tournament(5, seed=2).induced([3])
        assert sub.n == 1 and sub.arc_count == 0

    def test_induced_delete_complementary(self):
        # inducing on some ids, in any order and with repeats, deletes the
        # rows and columns of the others
        d = random_digraph(9, 0.4, seed=3)
        drop = [1, 3, 5, 7, 8]
        rest = np.delete(np.delete(d.adjacency, drop, axis=0), drop, axis=1)
        assert d.induced([6, 0, 4, 2, 0]) == Digraph(rest)


class TestSpanningTournament:
    """The whole-matrix reference the dominator finder tests compare with."""

    def test_complete_biorientation_resolves_to_transitive(self):
        assert plain_spanning_tournament(complete_digraph(3)) == transitive_tournament(3)

    def test_tournament_input_unchanged(self):
        d = random_tournament(7, seed=5)
        assert plain_spanning_tournament(d) == d

    def test_non_semicomplete_rejected(self):
        with pytest.raises(ValueError):
            plain_spanning_tournament(Digraph.from_arcs(3, [(0, 1)]))

    def test_seeded_variant_is_tournament_and_subset(self):
        d = complete_digraph(6)
        st_ = plain_spanning_tournament(d, seed=9)
        assert is_tournament(st_)
        assert not (st_.adjacency & ~d.adjacency).any()
        # one PCG64 draw per pair, in row-major order of the upper triangle
        assert np.argwhere(st_.adjacency).tolist() == [
            [0, 2], [0, 3], [1, 0], [1, 2], [1, 3], [1, 4], [1, 5], [2, 3],
            [2, 4], [2, 5], [3, 4], [3, 5], [4, 0], [4, 5], [5, 0]]


class TestPaths:
    def test_path_validation(self):
        d = three_cycle()
        p = Path(d, (0, 1, 2))
        assert p.length == 2 and p.interior() == (1,)
        with pytest.raises(ValueError):
            Path(d, (0, 2))  # missing arc
        with pytest.raises(ValueError):
            Path(d, (0, 1, 0))  # repeated vertex

    def test_trivial_path_allowed(self):
        p = Path(three_cycle(), (1,))
        assert p.length == 0 and p.first == p.last == 1

    def test_subpath_and_join(self):
        d = transitive_tournament(5)
        p = Path(d, (0, 1, 2, 3))
        assert p.subpath(d, 1, 3).vertices == (1, 2, 3)

    def test_path_system_rejects_overlap(self):
        d = transitive_tournament(5)
        with pytest.raises(ValueError):
            PathSystem([Path(d, (0, 1)), Path(d, (1, 2))])

    def test_path_system_sets(self):
        d = transitive_tournament(6)
        ps = PathSystem([Path(d, (0, 1, 2)), Path(d, (3, 4))])
        assert [p.vertices for p in ps] == [(0, 1, 2), (3, 4)]
        assert len(ps) == 2
        assert ps.vertex_set() == {0, 1, 2, 3, 4}
        assert ps.total_vertices() == 5


def scan_for_shortcut(d: Digraph, vertices) -> bool:
    """Independent oracle: any arc skipping at least one interior vertex?"""
    for i in range(len(vertices)):
        for j in range(i + 2, len(vertices)):
            if d.has_arc(vertices[i], vertices[j]):
                return True
    return False


class TestReduceToMinimalPath:
    def test_direct_shortcut(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        assert reduce_to_minimal_path(d, Path(d, (0, 1, 2))).vertices == (0, 2)

    def test_already_minimal_unchanged(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        p = Path(d, (0, 1, 2))
        assert reduce_to_minimal_path(d, p) == p

    def test_random_paths_have_no_shortcut_left(self):
        for seed in range(12):
            d = random_tournament(10, seed=seed)
            # grow a greedy path from vertex 0
            verts = [0]
            while True:
                nxt = [int(w) for w in np.flatnonzero(d.adjacency[verts[-1]])
                       if w not in verts]
                if not nxt:
                    break
                verts.append(nxt[0])
            reduced = reduce_to_minimal_path(d, Path(d, verts))
            assert set(reduced.vertices) <= set(verts)
            assert reduced.first == verts[0] and reduced.last == verts[-1]
            assert not scan_for_shortcut(d, reduced.vertices)

    def test_idempotent(self):
        d = random_tournament(9, seed=33)
        verts = [0]
        while True:
            nxt = [int(w) for w in np.flatnonzero(d.adjacency[verts[-1]])
                   if w not in verts]
            if not nxt:
                break
            verts.append(nxt[0])
        once = reduce_to_minimal_path(d, Path(d, verts))
        assert reduce_to_minimal_path(d, once) == once


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 30), st.floats(0.0, 1.0))
def test_one_pass_reduction_matches_the_restarting_one(seed, n, density):
    # a random path through a random digraph, its own arcs put in
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < density
    verts = rng.permutation(n)[:rng.integers(2, n + 1)]
    adj[verts[:-1], verts[1:]] = True
    np.fill_diagonal(adj, False)
    d = Digraph(adj, copy=False)
    p = Path(d, verts.tolist())
    assert reduce_to_minimal_path(d, p) == plain_reduce_to_minimal_path(d, p)


@given(st.integers(2, 24))
def test_tournament_arc_count(n):
    d = random_tournament(n, seed=n)
    assert d.arc_count == n * (n - 1) // 2


# each unordered pair: one arc either way (most draws), both arcs or none
_PAIR_KINDS = ("fwd", "back", "fwd", "back", "fwd", "back", "both", "none")


@st.composite
def general_digraphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kinds = draw(st.lists(st.sampled_from(_PAIR_KINDS), min_size=len(pairs),
                          max_size=len(pairs)))
    adj = np.zeros((n, n), dtype=bool)
    for (u, v), kind in zip(pairs, kinds):
        adj[u, v] = kind in ("fwd", "both")
        adj[v, u] = kind in ("back", "both")
    return Digraph(adj, copy=False)


@given(general_digraphs())
@settings(max_examples=200)
def test_predicates_match_pair_loop(d):
    a = d.adjacency
    arcs = [int(a[u, v]) + int(a[v, u]) for u in range(d.n) for v in range(u + 1, d.n)]
    assert is_tournament(d) == all(c == 1 for c in arcs)
    assert is_semicomplete(d) == all(c >= 1 for c in arcs)


@given(st.integers(1, 20), st.integers(0, 5))
@settings(max_examples=40)
def test_degree_sums_match_arc_count(n, seed):
    d = random_digraph(n, 0.4, seed)
    assert int(d.out_degrees().sum()) == d.arc_count
    assert int(d.in_degrees().sum()) == d.arc_count


class TestArcListFormat:
    def test_roundtrip(self):
        d = random_digraph(11, 0.3, seed=6)
        assert digraph_from_arc_list(digraph_to_arc_list(d)) == d

    def test_reject_loop(self):
        with pytest.raises(ValueError, match="loop"):
            digraph_from_arc_list("2 1\n0 0\n")

    def test_reject_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            digraph_from_arc_list("2 2\n0 1\n0 1\n")

    def test_reject_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            digraph_from_arc_list("2 1\n0 5\n")

    def test_reject_malformed(self):
        with pytest.raises(ValueError):
            digraph_from_arc_list("2 1\n0\n")
        with pytest.raises(ValueError):
            digraph_from_arc_list("")
        with pytest.raises(ValueError):
            digraph_from_arc_list("3 2\n0 1\n")

    def test_empty_digraph(self):
        assert digraph_from_arc_list("3 0\n").n == 3

    def test_rows_in_order_and_empty_rows_skipped(self):
        assert digraph_to_arc_list(transitive_tournament(3)) == "3 3\n0 1\n0 2\n1 2\n"
        assert digraph_to_arc_list(Digraph.from_arcs(3, [])) == "3 0\n"

    def test_comments_blanks_and_tabs(self):
        text = "# header\n3 2\n\n0\t1\n  # note\n 1 2 \n"
        assert digraph_from_arc_list(text) == Digraph.from_arcs(3, [(0, 1), (1, 2)])

    def test_reject_stray_tokens(self):
        # "0 1 2" and "1" hold four tokens between them, two per line on average
        for text in ("3 1\n0 1 x\n", "3 1\n0 1.5\n", "3 1\n0 1 2\n",
                     "3 2\n0 1 2\n1\n", "3 2\n1\n0 1 2\n", "3 2\n0\t 1 2\n1\n"):
            with pytest.raises(ValueError, match="malformed"):
                digraph_from_arc_list(text)
        with pytest.raises(ValueError, match="range"):
            digraph_from_arc_list("3 1\n99999999999999999999 1\n")

    @pytest.mark.parametrize("line, shown", [
        ("99999999999999999999 1", "(99999999999999999999, 1)"),
        ("2 -99999999999999999999", "(2, -99999999999999999999)"),
        ("+00007 1", "(7, 1)"),
    ])
    def test_out_of_range_arc_named_as_written(self, line, shown):
        # the parser saturates an id beyond int64; the message names the
        # input's own id, not 9223372036854775807
        with pytest.raises(ValueError, match=rf"^arc {re.escape(shown)} out of range for n=3$"):
            digraph_from_arc_list(f"3 2\n0 1\n{line}\n")

    def test_hard_instance_roundtrip(self, reference_counterexample):
        d, _ = reference_counterexample
        text = digraph_to_arc_list(d)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "4470de1b21133eed3d7e33f58b5a6c3d253102454e8001f036a5ecfd07375cff"
        assert digraph_from_arc_list(text) == d

    def test_reject_huge_order_before_allocating(self, no_large_allocation):
        for text in ("1000000 0\n", f"{_MAX_ORDER + 1} 0\n"):
            with pytest.raises(ValueError, match="order"):
                digraph_from_arc_list(text)

    @staticmethod
    def plain_from_arcs(n, arcs):
        """The arc-by-arc build that names the first bad arc as it meets it."""
        adj = np.zeros((n, n), dtype=bool)
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if adj[u, v]:
                raise ValueError(f"duplicate arc ({u}, {v})")
            adj[u, v] = True
        return Digraph(adj)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=12))))
    @settings(max_examples=200)
    def test_from_arcs_and_arc_list_agree(self, case):
        # good lists, and lists with an id out of range, a loop or a repeat:
        # both readers build the plain build's matrix or name its first bad arc
        n, arcs = case
        text = f"{n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
        results = []
        for build in (lambda: self.plain_from_arcs(n, arcs), lambda: Digraph.from_arcs(n, arcs),
                      lambda: digraph_from_arc_list(text)):
            try:
                results.append(build().adjacency.tolist())
            except ValueError as exc:
                results.append(str(exc))
        assert results[1] == results[0] and results[2] == results[0]

    def test_from_arcs_id_beyond_int64_is_out_of_range(self):
        # int64 conversion raised OverflowError; it saturates, as the parser
        # does, and the message names the caller's id
        with pytest.raises(ValueError, match=r"^arc \(1180591620717411303424, 1\) out of range"):
            Digraph.from_arcs(3, [(0, 1), (2 ** 70, 1)])
        with pytest.raises(ValueError, match=r"^arc \(0, -1180591620717411303424\) out of range"):
            Digraph.from_arcs(3, [(0, -2 ** 70)])

    def test_from_arcs_checks_the_order_first(self, no_large_allocation):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            Digraph.from_arcs(_MAX_ORDER + 1, [])
        with pytest.raises(ValueError, match="order -1 is negative"):
            Digraph.from_arcs(-1, [])


@st.composite
def loopless_matrices(draw):
    # orders on either side of a whole number of bytes, and of a band of 256
    # rows; pairs with both arcs or none are included
    n = draw(st.one_of(st.integers(0, 70), st.integers(255, 257)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    np.fill_diagonal(a, False)
    return a


def assert_packing_is_fresh(d):
    rows, cols = d._packed()
    a = d.adjacency
    assert rows.dtype == cols.dtype == np.uint8
    np.testing.assert_array_equal(rows, np.packbits(a, axis=1), strict=True)
    np.testing.assert_array_equal(cols, np.packbits(a.T, axis=1), strict=True)


@given(loopless_matrices())
@settings(max_examples=150, deadline=None)
def test_packing_is_packbits_of_both_axes(a):
    # the columns come from the tile transpose of the rows, not from a.T
    assert_packing_is_fresh(Digraph(a, copy=False))


@given(loopless_matrices(), st.lists(st.booleans(), min_size=2, max_size=2), st.data())
@settings(max_examples=150, deadline=None)
def test_flipped_arcs_inherit_a_fresh_packing(a, pack_first, data):
    # Two flips in a row, each from a packed or an unpacked parent: a
    # packed parent hands its child a packing equal to a fresh one, and an
    # unpacked parent leaves its child unpacked.
    d = Digraph(a, copy=False)
    for packed in pack_first:
        arcs = np.argwhere(d.adjacency)
        if not len(arcs):
            break
        if packed:
            d._packed()
        u, v = map(int, arcs[data.draw(st.integers(0, len(arcs) - 1))])
        child = d.with_flipped_arc(u, v)
        assert not child.has_arc(u, v) and child.has_arc(v, u)
        assert (child._packing is None) == (d._packing is None)
        if child._packing is not None:
            assert_packing_is_fresh(child)
        d = child
    assert_packing_is_fresh(d)


class TestImmutability:
    def test_adjacency_is_read_only(self):
        d = random_tournament(5, seed=7)
        with pytest.raises(ValueError):
            d.adjacency[0, 1] = False

    def test_flip_arc_returns_copy(self):
        d = transitive_tournament(3)
        flipped = d.with_flipped_arc(0, 1)
        assert d.has_arc(0, 1) and flipped.has_arc(1, 0)
        with pytest.raises(ValueError):
            d.with_flipped_arc(1, 0)
