import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semilink.flows as flows
from semilink.digraph import Digraph
from semilink.dominators import (_bad_counts, _nearly_dominates, _picks, _scores,
                                 count_two_paths, find_nearly_in_dominating,
                                 find_nearly_out_dominating, goodness_scores,
                                 is_nearly_in_dominating_set,
                                 nearly_in_dominating_profile,
                                 nearly_out_dominating_profile)
from semilink.generators import (random_semicomplete, random_tournament,
                                 rotational_tournament, transitive_tournament)
from semilink.linker import LinkerTrace, build_dominating_set

from conftest import plain_spanning_tournament, random_digraph, run_optimized

PROFILES = (nearly_out_dominating_profile, nearly_in_dominating_profile)


def three_cycle():
    return Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def brute_two_paths(d, src, dst, pool=None):
    pool = range(d.n) if pool is None else pool
    return sum(1 for m in pool
               if m not in (src, dst) and d.has_arc(src, m) and d.has_arc(m, dst))


class TestCountTwoPaths:
    def test_cycle(self):
        assert count_two_paths(three_cycle(), 0, 2) == 1

    def test_transitive_source_to_sink(self):
        assert count_two_paths(transitive_tournament(5), 0, 4) == 3

    def test_matches_bruteforce_everywhere(self):
        d = random_tournament(10, seed=1)
        for u in range(10):
            for v in range(10):
                if u != v:
                    assert count_two_paths(d, u, v) == brute_two_paths(d, u, v)

    def test_pool_restriction(self):
        d = transitive_tournament(6)
        assert count_two_paths(d, 0, 5, within=[0, 2, 5]) == 1
        assert count_two_paths(d, 0, 5, within=[0, 2, 3, 5]) == 2

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            count_two_paths(three_cycle(), 1, 1)

    @pytest.mark.parametrize("src, dst", [(0, -5), (-5, 0), (0, -1), (0, 5), (0, 7),
                                          (7, 0)])
    def test_out_of_range_endpoints_rejected(self, src, dst):
        # numpy would wrap a negative id round: (0, -5) would read as (0, 0)
        with pytest.raises(ValueError, match="out of range"):
            count_two_paths(transitive_tournament(5), src, dst)


def is_good(d, u, v, c, direction="out"):
    """v is c-good for u: its goodness score in the whole digraph is at least c.

    An arc scores n, above every two-arc count, so c is capped at n as the
    bad counts cap their thresholds.
    """
    return goodness_scores(d, u, direction, np.ones(d.n, dtype=bool))[v] >= min(c, d.n)


class TestGoodness:
    def test_arc_case_good_for_all_c(self):
        d = transitive_tournament(4)
        for c in (1, 5, 50):
            assert is_good(d, 0, 3, c)
            assert is_good(d, 3, 0, c, "in")

    def test_boundary(self):
        d = transitive_tournament(5)
        # no arc 4 -> 0; exactly zero 2-paths from 4 to 0
        assert not is_good(d, 4, 0, 1)
        # 0 -> m -> 4 has 3 middles: c = 4 is one too many without the arc
        flipped = d.with_flipped_arc(0, 4)
        assert is_good(flipped, 0, 4, 3)
        assert not is_good(flipped, 0, 4, 4)

    def test_in_errors_match_out_errors(self):
        d = transitive_tournament(4)
        for kwargs, message in (({"within": [1, 2]}, "vertex must belong to the pool"),
                                ({"c_max": 0}, "c_max must be >= 1")):
            for profile in PROFILES:
                with pytest.raises(ValueError, match=message):
                    profile(d, 0, **kwargs)

    @pytest.mark.parametrize("u, v", [(-5, 2), (2, -5), (-1, 0), (5, 0), (0, 7)])
    def test_out_of_range_vertices_rejected(self, u, v):
        # numpy would wrap a negative id round: a centre -5 would read row 0
        d = transitive_tournament(5)
        for profile in PROFILES:
            with pytest.raises(ValueError, match="out of range"):
                profile(d, u, within=[u, v])

    def test_matches_bruteforce(self):
        d = random_tournament(12, seed=3)
        for u in range(12):
            for v in range(12):
                if u == v:
                    continue
                for c in (1, 2, 4):
                    expect = d.has_arc(u, v) or brute_two_paths(d, u, v) >= c
                    assert is_good(d, u, v, c) == expect
                    expect_in = d.has_arc(v, u) or brute_two_paths(d, v, u) >= c
                    assert is_good(d, u, v, c, "in") == expect_in


def brute_nearly_out_dominating(d, u, pool=None):
    pool = list(range(d.n)) if pool is None else list(pool)
    others = [v for v in pool if v != u]
    for c in range(1, len(others) + 2):
        bad = sum(1 for v in others
                  if not (d.has_arc(u, v) or brute_two_paths(d, u, v, pool) >= c))
        if bad > 2 * c:
            return False
    return True


class TestNearlyDominating:
    def test_transitive_source(self):
        tt8 = transitive_tournament(8)
        assert nearly_out_dominating_profile(tt8, 0).is_nearly_dominating()
        assert nearly_in_dominating_profile(tt8, 7).is_nearly_dominating()

    def test_cycle_every_vertex(self):
        for v in range(3):
            assert nearly_out_dominating_profile(three_cycle(), v).is_nearly_dominating()

    def test_matches_independent_reimplementation(self):
        d = random_tournament(40, seed=5)
        for u in range(0, 40, 7):
            assert nearly_out_dominating_profile(d, u).is_nearly_dominating() == \
                brute_nearly_out_dominating(d, u)
        d2 = random_semicomplete(24, 0.4, seed=6)
        for u in range(0, 24, 5):
            assert nearly_out_dominating_profile(d2, u).is_nearly_dominating() == \
                brute_nearly_out_dominating(d2, u)

    def test_bad_counts_non_increasing_in_c(self):
        d = random_tournament(30, seed=8)
        prof = nearly_out_dominating_profile(d, 4)
        diffs = np.diff(np.array(prof.bad_counts))
        assert (diffs >= 0).all()  # bad(c) counts scores < c, so it grows

    def test_bad_counts_past_the_vacuity_bound(self):
        # vertex 1 has six candidates; one of them has four middles and no
        # arc from 1, so it is not c-good for c = 5, 6 and 7
        d = random_semicomplete(7, 0.2, seed=0)
        prof = nearly_out_dominating_profile(d, 1)
        assert prof.pool_size // 2 + 1 == 4
        assert prof.bad_counts == (0, 0, 0, 0, 1, 1, 1)
        assert prof.is_nearly_dominating() and prof.satisfies_strict_bound()

    def test_default_count_reaches_the_vacuity_bound(self):
        # 30 candidates: bad(11), bad(12), bad(13) = 22, 24, 26 meet the 2c
        # rule and bad(14) = 29 breaks it, below the vacuity bound 16 but
        # above a third of the candidates
        n = 31
        scores = np.array([10] * 22 + [11] * 2 + [12] * 2 + [13] * 3 + [n])
        bad = _bad_counts(scores, n)
        assert bad.size == 16 and list(bad[10:14]) == [22, 24, 26, 29]
        assert not _nearly_dominates(bad)

    def test_vacuous_region_shortcut(self):
        d = random_tournament(21, seed=9)
        prof = nearly_out_dominating_profile(d, 0, c_max=21)
        vacuous_from = prof.pool_size // 2 + 1  # the smallest c with 2c > pool size
        assert vacuous_from <= 11
        # beyond the vacuity threshold the condition always holds
        for c in range(vacuous_from, 22):
            assert prof.bad_counts[c - 1] <= 2 * c


def brute_bad_counts(d, u, direction, c_max, pool):
    """bad(c) for c = 1..c_max, each vertex's goodness checked on its own."""
    others = [v for v in pool if v != u]
    counts = []
    for c in range(1, c_max + 1):
        if direction == "out":
            good = [d.has_arc(u, v) or brute_two_paths(d, u, v, pool) >= c for v in others]
        else:
            good = [d.has_arc(v, u) or brute_two_paths(d, v, u, pool) >= c for v in others]
        counts.append(good.count(False))
    return counts


@given(st.integers(0, 10 ** 6), st.integers(1, 13), st.floats(0.0, 1.0),
       st.integers(1, 30), st.sampled_from(["in", "out"]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_bad_counts_are_exact(seed, n, density, c_max, direction, whole):
    # general digraphs, c_max below and above n, whole digraph or a pool
    rng = np.random.Generator(np.random.PCG64(seed))
    d = random_digraph(n, density, seed)
    u = int(rng.integers(n))
    pool = list(range(n)) if whole else \
        sorted({u} | {int(v) for v in rng.choice(n, size=rng.integers(n + 1), replace=False)})
    profile = nearly_out_dominating_profile if direction == "out" \
        else nearly_in_dominating_profile
    prof = profile(d, u, c_max=c_max, within=None if whole else pool)
    bad = brute_bad_counts(d, u, direction, c_max, pool)
    assert list(prof.bad_counts) == bad
    assert prof.pool_size == len(pool) - 1
    assert prof.is_nearly_dominating() == all(b <= 2 * c for c, b in enumerate(bad, 1))
    assert prof.satisfies_strict_bound() == \
        all(b <= 2 * c - 1 for c, b in enumerate(bad, 1))


@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.floats(0.0, 1.0),
       st.booleans(), st.booleans(), st.sampled_from(["in", "out"]))
@example(seed=3, n=12, density=0.5, semicomplete=False, centre_in_pool=False,
         direction="in")
@settings(max_examples=300, deadline=None)
def test_goodness_scores_match_arcs_and_two_paths(seed, n, density, semicomplete,
                                                  centre_in_pool, direction):
    # semicomplete and general digraphs, a random pool, the centre inside or
    # outside it; outside-pool vertices and the centre score -1
    rng = np.random.Generator(np.random.PCG64(seed))
    d = (random_semicomplete if semicomplete else random_digraph)(n, density, seed)
    u = int(rng.integers(n))
    mask = rng.random(n) < rng.random()
    mask[u] = centre_in_pool
    pool = np.flatnonzero(mask).tolist()
    scores = goodness_scores(d, u, direction, mask)
    for v in range(n):
        if v == u or not mask[v]:
            expect = -1
        else:
            src, dst = (u, v) if direction == "out" else (v, u)
            expect = n if d.has_arc(src, dst) else count_two_paths(d, src, dst, pool)
        assert scores[v] == expect, (v, direction)


@pytest.mark.parametrize("u,direction,match", [
    (-1, "out", "out of range"),  # numpy would wrap round to vertex n-1
    (5, "in", "out of range"),
    (0, "sideways", "direction"),  # used to score "in"
])
def test_goodness_scores_reject_bad_centre_and_direction(u, direction, match):
    d = transitive_tournament(5)
    with pytest.raises(ValueError, match=match):
        goodness_scores(d, u, direction, np.ones(d.n, dtype=bool))


@pytest.mark.parametrize("query, match", [
    # the pool used to be scored as {0, 2, 3}
    (lambda d: nearly_out_dominating_profile(d, 0, within=[0.5, 2.7, 3]),
     "pool vertex 0.5 is not an integer"),
    (lambda d: goodness_scores(d, 0.5, "out", np.ones(d.n, dtype=bool)),
     "vertex 0.5 is not an integer"),
    (lambda d: count_two_paths(d, 0, 4.5), "vertex 4.5 is not an integer"),
    (lambda d: nearly_out_dominating_profile(d, 0, c_max=2.5), "c_max 2.5 is not an integer"),
], ids=["pool", "goodness", "two_paths", "c_max"])
def test_non_integer_ids_rejected(query, match):
    # goodness and two_paths used to fail inside numpy with an IndexError,
    # and c_max 2.5 returned 3 counts
    with pytest.raises(ValueError, match=match):
        query(rotational_tournament(9))


@pytest.mark.parametrize("members, match", [([0, 0.5], "is not an integer"),
                                            ([-1], "vertex -1 out of range")])
def test_set_check_rejects_bad_members(members, match):
    # int() truncated 0.5, and -1 marked vertex n-1 as the member
    with pytest.raises(ValueError, match=match):
        is_nearly_in_dominating_set(rotational_tournament(9), members)


def test_pool_of_numpy_integers_accepted():
    d = rotational_tournament(9)
    want = nearly_out_dominating_profile(d, 0, within=[0, 2, 3])
    for pool in (np.array([0, 2, 3], dtype=np.int32), [np.int64(0), 2, 3], (0, 2, 3)):
        assert nearly_out_dominating_profile(d, 0, within=pool) == want


def plain_scores(d, u, direction, pool):
    """The scores as bool row sums: rows of the adjacency for "out", rows of
    its transposed view (strided column gathers) for "in"."""
    lines = d.adjacency if direction == "out" else d.adjacency.T
    row = lines[u]
    return np.where(row, d.n, lines[row & pool].sum(axis=0))


def plain_goodness(d, u, direction, pool):
    """``goodness_scores`` from ``plain_scores``."""
    expect = np.where(pool, plain_scores(d, u, direction, pool), -1)
    expect[u] = -1
    return expect


@given(st.integers(0, 10 ** 6), st.integers(1, 40),
       st.sampled_from(["tournament", "semicomplete", "general"]),
       st.sampled_from(["in", "out"]))
@example(seed=1, n=5, kind="general", direction="out")
@example(seed=2, n=13, kind="semicomplete", direction="out")
@settings(max_examples=150, deadline=None)
def test_packed_scores_match_plain_rows(seed, n, kind, direction):
    # n < 8 and n % 8 != 0 leave pad bits in every packed row and column,
    # and the pool is a random part of the vertex set
    rng = np.random.Generator(np.random.PCG64(seed))
    d = {"tournament": lambda: random_tournament(n, seed),
         "semicomplete": lambda: random_semicomplete(n, 0.3, seed),
         "general": lambda: random_digraph(n, 0.5, seed)}[kind]()
    pool = rng.random(n) < rng.random()
    profile = PROFILES[direction == "in"]
    for u in range(n):
        assert (_scores(d, u, direction, pool) == plain_scores(d, u, direction, pool)).all(), u
        expect = plain_goodness(d, u, direction, pool)
        assert (goodness_scores(d, u, direction, pool) == expect).all(), u
        if pool[u]:
            candidates = expect[expect >= 0]
            bad = [int((candidates < min(c, n)).sum()) for c in range(1, n + 1)]
            prof = profile(d, u, within=np.flatnonzero(pool))
            assert list(prof.bad_counts) == bad, u
    members = np.flatnonzero(pool)
    if members.size and direction == "in":
        full = np.ones(n, dtype=bool)
        nearly = [plain_scores(d, u, "in", full)[~pool] for u in members]
        assert is_nearly_in_dominating_set(d, members) == \
            all((s < min(c, n)).sum() <= 2 * c for s in nearly for c in range(1, n + 1))
    # the scores the connectivity deciders read, both directions per centre
    read = []

    def recording(d, u, direction, pool):
        read.append((u, direction, pool.copy(), goodness_scores(d, u, direction, pool)))
        return read[-1][3]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "goodness_scores", recording)
        if n >= 2:
            flows.vertex_connectivity(d)
            flows.is_k_connected(d, min(3, n - 1))
    assert {side for _, side, _, _ in read} in (set(), {"in", "out"})
    for u, side, pool, scores in read:
        assert pool.all() and (scores == plain_goodness(d, u, side, pool)).all(), u


def test_packed_in_scores_at_scale():
    # one row of a 7081-vertex tournament: 886 packed bytes per row
    d = rotational_tournament(7081)
    full = np.ones(d.n, dtype=bool)
    assert (goodness_scores(d, 5, "in", full) == plain_goodness(d, 5, "in", full)).all()


@pytest.mark.parametrize("direction", ["in", "out"])
def test_in_scores_allocate_no_transposed_copy(direction):
    # Once the digraph keeps its packing, a call ANDs the packed rows ("in")
    # or columns ("out") with one packed line and counts the bits in place:
    # n^2 / 8 bytes at the peak.  A transposed copy would hold n^2, and the
    # gather of the centre's out-rows as bools about n^2 / 2.
    n = 1000
    d = random_tournament(n, seed=5)
    full = np.ones(n, dtype=bool)
    goodness_scores(d, 7, direction, full)
    tracemalloc.start()
    try:
        scores = goodness_scores(d, 7, direction, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (scores == plain_goodness(d, 7, direction, full)).all()
    assert peak <= 0.5 * n * n, peak / n ** 2
    assert peak <= 0.2 * n * n, peak / n ** 2  # 0.16 n^2 measured


def test_goodness_scores_reject_malformed_masks():
    d = rotational_tournament(9)
    full = np.ones(d.n, dtype=bool)
    assert goodness_scores(d, 0, "in", full).tolist() == [-1, 1, 2, 3, 4, 9, 9, 9, 9]
    # an int mask of 2s scored every non-arc vertex 0; a short mask died
    # inside numpy's broadcasting
    for mask in (np.full(d.n, 2), np.ones(5, dtype=bool), full.tolist()):
        for direction in ("in", "out"):
            with pytest.raises(ValueError, match="boolean array of length n"):
                goodness_scores(d, 0, direction, mask)


class TestFinders:
    def test_transitive_extremes(self):
        assert find_nearly_out_dominating(transitive_tournament(9)) == 0
        assert find_nearly_in_dominating(transitive_tournament(9)) == 8

    def test_regular_tie_break(self):
        assert find_nearly_out_dominating(rotational_tournament(9)) == 0

    def test_found_vertex_always_passes_with_strict_bound(self):
        for i in range(40):
            n = 6 + (i * 5) % 55
            d = random_semicomplete(n, (i % 8) / 8.0, seed=100 + i)
            u = find_nearly_out_dominating(d)
            prof = nearly_out_dominating_profile(d, u)
            assert prof.is_nearly_dominating()
            assert prof.satisfies_strict_bound()

    def test_reversal_duality(self):
        for seed in range(10):
            d = random_semicomplete(18, 0.3, seed=seed)
            assert find_nearly_in_dominating(d) == \
                find_nearly_out_dominating(d.reverse())

    def test_pool_restriction(self):
        d = transitive_tournament(10)
        assert find_nearly_out_dominating(d, within=[4, 5, 6]) == 4

    def test_non_semicomplete_rejected(self):
        with pytest.raises(ValueError):
            find_nearly_out_dominating(Digraph.from_arcs(3, [(0, 1)]))

    def test_failed_guarantee_survives_optimize(self):
        script = """
import semilink.dominators as dominators
from semilink.generators import rotational_tournament
assert False, "assert statements must be stripped"

dominators._nearly_dominates = lambda *args, **kwargs: False
try:
    dominators.find_nearly_out_dominating(rotational_tournament(7))
except AssertionError:
    raise SystemExit(0)
raise SystemExit("nearly-dominating check skipped")
"""
        proc = run_optimized("-c", script)
        assert proc.returncode == 0, proc.stderr[-2000:]


def reference_find(d, direction, within=None):
    """The finder on the spanning tournament of an ``np.ix_`` copy of the pool.

    Argmax of its out-degrees (reversed pool for "in"), then the full
    profile of the chosen vertex.
    """
    if within is None:
        ids = np.arange(d.n)
    else:
        ids = np.unique(np.asarray(list(within), dtype=np.int64))
    if ids.size == 0:
        raise ValueError("empty pool")
    sub = d.adjacency[np.ix_(ids, ids)]
    if direction == "in":
        sub = sub.T
    single = plain_spanning_tournament(Digraph(sub)).adjacency  # ValueError unless semicomplete
    u = int(ids[int(np.argmax(single.sum(axis=1)))])
    profile = nearly_out_dominating_profile if direction == "out" \
        else nearly_in_dominating_profile
    if not profile(d, u, within=ids).is_nearly_dominating():
        raise AssertionError(f"vertex {u} is not nearly {direction}-dominating")
    return u


def _outcome(find, *args):
    try:
        return find(*args)
    except ValueError:
        return "ValueError"


@given(st.integers(0, 10 ** 6), st.integers(1, 40), st.floats(0.0, 0.9),
       st.sampled_from([0.0, 0.0, 0.03]), st.integers(0, 40),
       st.sampled_from(["in", "out"]))
@example(seed=5, n=9, density=0.5, holes=0.0, pool_size=1, direction="in")
@example(seed=5, n=9, density=0.5, holes=0.0, pool_size=2, direction="out")
@example(seed=6, n=12, density=0.9, holes=0.0, pool_size=2, direction="in")
@example(seed=7, n=20, density=0.3, holes=0.03, pool_size=0, direction="out")
@settings(max_examples=300, deadline=None)
def test_finder_matches_reference(seed, n, density, holes, pool_size, direction):
    # pool_size 0 means the whole digraph; holes drop arcs of both directions
    # of some pairs, so that some pools are not semicomplete
    rng = np.random.Generator(np.random.PCG64(seed))
    adj = random_semicomplete(n, density, seed).adjacency.copy()
    cut = np.triu(rng.random((n, n)) < holes, 1)
    adj &= ~(cut | cut.T)
    d = Digraph(adj, copy=False)
    within = None if pool_size == 0 else \
        rng.choice(n, size=min(pool_size, n), replace=False).tolist()
    find = find_nearly_out_dominating if direction == "out" else find_nearly_in_dominating
    assert _outcome(find, d, within) == _outcome(reference_find, d, direction, within)


@pytest.mark.parametrize("p_bidirected", [0.0, 0.3])
def test_finder_allocates_no_extra_blocks(p_bidirected):
    # One call at n=1000 peaks near 2 n^2 bytes: the pool's rows and one
    # pool x pool block at a time.  The np.ix_ finder peaked at 4.9 n^2
    # on a tournament and 5.3 n^2 with bidirected pairs.
    n = 1000
    d = random_semicomplete(n, p_bidirected, seed=3)
    pool = list(range(10, n))
    find_nearly_in_dominating(d, within=pool)
    tracemalloc.start()
    try:
        u = find_nearly_in_dominating(d, within=pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u == reference_find(d, "in", pool)
    assert peak <= 3 * n * n, peak / n ** 2


def reference_picks(d, direction, within, count):
    """``reference_find`` pick by pick, each pick leaving the pool."""
    remaining = list(range(d.n)) if within is None else sorted(within)
    picks = []
    for _ in range(count):
        picks.append(reference_find(d, direction, remaining))
        remaining.remove(picks[-1])
    return picks


@given(st.integers(0, 10 ** 6), st.integers(1, 30), st.floats(0.0, 1.0),
       st.sampled_from(["general", "semicomplete", "holes"]), st.integers(0, 30),
       st.integers(1, 8), st.sampled_from(["in", "out"]))
@example(seed=1, n=12, density=0.5, kind="holes", pool_size=0, count=4, direction="in")
@example(seed=2, n=9, density=0.3, kind="semicomplete", pool_size=3, count=5, direction="out")
@example(seed=70, n=70, density=0.3, kind="semicomplete", pool_size=63, count=8, direction="in")
@example(seed=130, n=130, density=0.0, kind="semicomplete", pool_size=0, count=8, direction="out")
@example(seed=300, n=300, density=0.2, kind="semicomplete", pool_size=293, count=8, direction="in")
@example(seed=300, n=300, density=0.5, kind="semicomplete", pool_size=0, count=8, direction="out")
@settings(max_examples=300, deadline=None)
def test_picks_match_reference_pick_by_pick(seed, n, density, kind, pool_size,
                                            count, direction):
    # general digraphs, semicomplete ones and semicomplete ones with holes
    # (both arcs of some pairs dropped); pool_size 0 means the whole digraph,
    # and a pool smaller than count runs out of vertices.  Above n=64 the
    # bitsets take several words, and above 256 pool vertices more than
    # one packing band.
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "general":
        d = random_digraph(n, density, seed)
    else:
        adj = random_semicomplete(n, density, seed).adjacency.copy()
        if kind == "holes":
            cut = np.triu(rng.random((n, n)) < 0.03, 1)
            adj &= ~(cut | cut.T)
        d = Digraph(adj, copy=False)
    within = None if pool_size == 0 else \
        rng.choice(n, size=min(pool_size, n), replace=False).tolist()
    assert _outcome(_picks, d, direction, within, count) == \
        _outcome(reference_picks, d, direction, within, count)


@pytest.mark.parametrize("direction", ["in", "out"])
def test_flipped_children_read_their_inherited_packing(direction):
    # Each child of a packed parent inherits the packing with two rows and
    # two columns packed anew; every flip takes an arc from the vertex
    # picked first, so a stale row or column would keep that pick.  The
    # reference picks run on a fresh digraph, packed from its own matrix.
    d = random_tournament(70, seed=11)
    d._packed()
    full = np.ones(d.n, dtype=bool)
    pool = np.random.default_rng(11).random(d.n) < 0.7
    for _ in range(4):
        first = _picks(d, direction, None, 1)[0]
        lines = d.adjacency if direction == "out" else d.adjacency.T
        for v in np.flatnonzero(lines[first])[:6].tolist():
            arc = (first, v) if direction == "out" else (v, first)
            d = d.with_flipped_arc(*arc)
        assert d._packing is not None
        picks = _picks(d, direction, None, 5)
        assert picks[0] != first
        assert picks == reference_picks(Digraph(d.adjacency), direction, None, 5)
        for u in range(d.n):
            for mask in (full, pool):
                assert (goodness_scores(d, u, direction, mask) ==
                        plain_goodness(d, u, direction, mask)).all(), u


@pytest.mark.parametrize("direction", ["in", "out"])
def test_each_pick_checks_its_own_pool(monkeypatch, direction):
    # The bad counts behind each pick's assertion are those of the pool the
    # earlier picks left: no removed vertex counts as a middle or a candidate.
    import semilink.dominators as dominators
    seen = []
    real = dominators._nearly_dominates
    monkeypatch.setattr(dominators, "_nearly_dominates",
                        lambda bad, *a: seen.append(list(bad)) or real(bad, *a))
    profile = nearly_out_dominating_profile if direction == "out" \
        else nearly_in_dominating_profile
    for seed in range(6):
        d = random_semicomplete(40, 0.1 * seed, seed=200 + seed)
        remaining = list(range(3, 40))
        seen.clear()
        picks = _picks(d, direction, remaining, 8)
        assert len(seen) == 8
        for u, bad in zip(picks, seen):
            c_max = (len(remaining) - 1) // 2 + 1
            assert bad == list(profile(d, u, c_max=c_max, within=remaining).bad_counts)
            remaining.remove(u)


@pytest.mark.parametrize("direction", ["in", "out"])
def test_first_failing_pick_is_named(monkeypatch, direction):
    # Every pick is fixed before any check; the checks then run in pick
    # order, and the first one that fails names its own pick.
    import semilink.dominators as dominators
    d = random_semicomplete(40, 0.3, seed=210)
    picks = _picks(d, direction, None, 6)
    real = dominators._nearly_dominates
    calls = []

    def third_fails(bad, *args):
        calls.append(list(bad))
        return len(calls) != 3 and real(bad, *args)

    monkeypatch.setattr(dominators, "_nearly_dominates", third_fails)
    with pytest.raises(AssertionError, match=rf"^max-degree vertex {picks[2]} fails "
                                             rf"the nearly-{direction}-dominating check$"):
        _picks(d, direction, None, 6)
    assert len(calls) == 3


def test_no_terminals_make_no_picks():
    # 3k = 0 picks is the empty pool; the pick loop used to run on forever
    d = rotational_tournament(7)
    assert _picks(d, "in", None, 0) == []
    assert build_dominating_set(d, [], [], LinkerTrace()) == []


@given(st.lists(st.integers(0, 40), max_size=60), st.integers(1, 40), st.integers(1, 70))
def test_bad_counts_match_sorted_search(scores, n, c_max):
    # bad(c) counts the scores below min(c, n), with c_max below and above n
    s = np.minimum(np.array(scores, dtype=np.int64), n)
    want = np.searchsorted(np.sort(s), np.minimum(np.arange(1, c_max + 1), n))
    assert _bad_counts(s, n, c_max).tolist() == want.tolist()


@pytest.mark.parametrize("p_bidirected", [0.0, 0.3])
def test_picks_allocate_no_extra_blocks(p_bidirected):
    # The 3k picks of one build_dominating_set at n=1000 share one pool
    # gather and hold at most two pool x pool blocks at once.
    n, k = 1000, 3
    d = random_semicomplete(n, p_bidirected, seed=4)
    terminals = list(range(0, 6 * k, 6)), list(range(3, 6 * k, 6))
    build_dominating_set(d, *terminals, LinkerTrace())
    tracemalloc.start()
    try:
        pool = build_dominating_set(d, *terminals, LinkerTrace())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rest = sorted(set(range(n)) - set(terminals[0]) - set(terminals[1]))
    assert pool == reference_picks(d, "in", rest, 3 * k)
    assert peak <= 3 * n * n, peak / n ** 2


class TestNearlyInDominatingSet:
    def test_whole_vertex_set_is_vacuous(self):
        d = transitive_tournament(6)
        assert is_nearly_in_dominating_set(d, range(6))

    def test_sink_heavy_set(self):
        d = transitive_tournament(8)
        # the sink is in-dominated by everyone, directly
        assert is_nearly_in_dominating_set(d, [7])
        # the source has no in-arcs at all: every c fails once 2c < n-1
        assert not is_nearly_in_dominating_set(d, [0])

    def test_iterated_picks_form_a_dominating_set(self):
        for seed in range(6):
            d = random_semicomplete(30, 0.2, seed=40 + seed)
            members = []
            remaining = set(range(30))
            for _ in range(6):
                u = find_nearly_in_dominating(d, within=sorted(remaining))
                members.append(u)
                remaining.discard(u)
            assert is_nearly_in_dominating_set(d, members)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            is_nearly_in_dominating_set(transitive_tournament(4), [])
