import dataclasses
import functools
import hashlib
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semilink import counterexample, digraph
from semilink.counterexample import (CORE_RULES, EXTRA_CHECKS, CounterexampleLayout,
                                     CounterexampleParams, RuleCheck, RuleWitness,
                                     build_counterexample,
                                     sampled_connectivity_check,
                                     verify_construction_rules,
                                     verify_property_two)
from semilink.digraph import (_MAX_ORDER, Digraph, _upper_bands, is_semicomplete,
                              is_tournament)


class TestParams:
    def test_width_floor(self):
        with pytest.raises(ValueError, match="k must be"):
            CounterexampleParams(41, 1764)

    def test_order_floor(self):
        with pytest.raises(ValueError, match="n must be"):
            CounterexampleParams(42, 1763)

    def test_parity(self):
        # 1765 leaves an even reservoir, which cannot be regular
        with pytest.raises(ValueError, match="even reservoir"):
            CounterexampleParams(42, 1765)

    @pytest.mark.parametrize("query, match", [
        # these used to report "n must be >= k*k" and to sample 3 pairs
        (lambda: build_counterexample(42.5, 1764), "k 42.5 is not an integer"),
        (lambda: sampled_connectivity_check(Digraph.from_arcs(3, [(0, 1)]), 3, 2.5, 0),
         "pairs 2.5 is not an integer"),
    ], ids=["k", "pairs"])
    def test_non_integer_parameters_rejected(self, query, match):
        with pytest.raises(ValueError, match=match):
            query()

    def test_order_cap(self, no_large_allocation):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            CounterexampleParams(42, _MAX_ORDER + 1)
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            build_counterexample(42, _MAX_ORDER + 1)

    def test_derived_sizes(self):
        p = CounterexampleParams(42, 1764)
        assert p.l == 3
        assert p.reservoir_size == 1427


class TestBuild:
    def test_is_tournament(self, reference_counterexample):
        d, _ = reference_counterexample
        assert d.n == 1764
        assert is_tournament(d)

    def test_layer_sizes(self, reference_counterexample):
        _, lay = reference_counterexample
        assert all(lay.rung(t).size == 21 for t in range(5))
        assert lay.ladder().size == 63
        assert lay.mesh().size == 63
        assert lay.reservoir().size == 1427

    def test_min_out_degree_bound(self, reference_counterexample):
        d, _ = reference_counterexample
        assert d.min_out_degree() >= 86  # ceil((42^2 + 11*42) / 26)

    def test_roles_partition(self, reference_counterexample):
        d, lay = reference_counterexample
        roles = [lay.role_of(v) for v in range(d.n)]
        assert len(roles) == d.n
        assert roles.count("outlet") == 1
        assert roles.count("bypass") == 1
        assert sum(1 for r in roles if r.startswith("track:")) == 42 * 5

    def test_reservoir_is_regular(self, reference_counterexample):
        d, lay = reference_counterexample
        sub = d.adjacency[np.ix_(lay.reservoir(), lay.reservoir())]
        assert (sub.sum(axis=1) == 713).all()
        assert (sub.sum(axis=0) == 713).all()

    def test_seeded_build_also_satisfies_rules(self):
        d, lay = build_counterexample(42, 1764, seed=99)
        report = verify_construction_rules(d, lay)
        assert report.all_passed
        base, _ = build_counterexample(42, 1764)
        assert d != base  # the free zones actually vary

    def test_deterministic(self):
        a, _ = build_counterexample(42, 1764)
        b, _ = build_counterexample(42, 1764)
        assert a == b

    @pytest.mark.parametrize("k, n, seed, digest", [
        (42, 1764, None, "4e1d6fe0780cc42aaaf1fe4ac09d49aaf2d942c438fbf14c549723ecd9a69231"),
        (42, 1764, 99, "12660228dc271166efd30d7d89f1e3699ba23883c8c3c9bb4591b9c8b2f21179"),
        (50, 2500, None, "fa20b1e2e12e2d342f60c674be3a50d930db07bbe4c06ee2bd5445788daf6152"),
        (42, 1766, 7, "569cdc7a96f7498377ba0bf9b75088a7359a9cea5482006b8658968c89e03a72"),
        (44, 1936, None, "1517d520ee83e68502c6225c4cb9694605ea99ae107d9b4d61afe1f32f2c5b22"),
        (50, 2500, 3, "2b137f135d000942424503793631333e4c31c8ade6fbd4eba8c1cce451416e15"),
        (60, 3600, None, "ee0cc264d38c27bae01a006c508dbb93fe3e9fc7e08b7d197f0c828b9c0a9da5"),
    ])
    def test_adjacency_pinned(self, k, n, seed, digest):
        d, _ = build_counterexample(k, n, seed=seed)
        got = hashlib.sha256(np.ascontiguousarray(d.adjacency).tobytes()).hexdigest()
        assert got == digest


class TestRuleVerifier:
    def test_fresh_build_passes_everything(self, reference_counterexample):
        d, lay = reference_counterexample
        report = verify_construction_rules(d, lay)
        assert report.all_passed
        assert len([c for c in report.checks if c.name in CORE_RULES]) == 13

    @pytest.mark.parametrize("mutate,rule", [
        (lambda lay: (int(lay.rung(1)[2]), int(lay.rung(1)[3])), "rung_order"),
        (lambda lay: (int(lay.ladder()[0]), int(lay.mesh()[0])), "ladder_over_mesh"),
        (lambda lay: (int(lay.tails()[3]), int(lay.relays[1])), "tail_relay_split"),
        (lambda lay: (int(lay.starts[0]), int(lay.targets[2])), "start_target"),
        (lambda lay: (int(lay.core[9]), lay.outlet), "outlet"),
        (lambda lay: (int(lay.track[0, 2]), int(lay.track[0, 3])), "ladder_descent"),
        (lambda lay: (int(lay.bypass), int(lay.targets[0])), "bypass_feed"),
        (lambda lay: (int(lay.targets[0]), int(lay.mirrors[3])), "tier_dominance"),
        (lambda lay: (int(lay.relays[2]), int(lay.targets[1])), "relay_target_split"),
        (lambda lay: (int(lay.relays[0]), int(lay.mirrors[2])), "relay_mirror_split"),
        (lambda lay: (int(lay.interiors()[0]), int(lay.core[0])), "grid_over_reservoir"),
        (lambda lay: (int(lay.tails()[2]), int(lay.interiors()[5])), "tail_block"),
        (lambda lay: (int(lay.mirrors[4]), int(lay.mirrors[1])), "tier_orders"),
        (lambda lay: (int(lay.rung(2)[3]), int(lay.rung(0)[5])), "no_forward_jump"),
    ])
    def test_fault_injection_names_the_rule(self, reference_counterexample,
                                            mutate, rule):
        d, lay = reference_counterexample
        u, v = mutate(lay)
        mutant = d.with_flipped_arc(u, v)
        report = verify_construction_rules(mutant, lay)
        check = report.by_name(rule)
        assert not check.passed
        assert {check.witness.u, check.witness.v} == {u, v}

    def test_single_flip_verdicts_golden(self, reference_counterexample):
        # One seeded flip per unordered pair of role groups, including a
        # group with itself; each check is pinned by its verdict and its
        # witness pair, not by the wording of its expectation.
        d, lay = reference_counterexample
        groups = [lay.rung(t) for t in range(lay.l + 2)]
        groups += [lay.track[lay.half:, t] for t in range(lay.l + 2)]
        groups += [lay.core[lay.core != lay.bypass], lay.relays, lay.targets,
                   lay.mirrors, lay.starts, [lay.outlet], [lay.bypass]]
        rng = np.random.Generator(np.random.PCG64(150))
        rows = []
        for a, b in itertools.combinations_with_replacement(groups, 2):
            if a is b and len(a) < 2:
                continue
            u, v = (int(x) for x in rng.choice(a, size=2, replace=False)) \
                if a is b else (int(rng.choice(a)), int(rng.choice(b)))
            mutant = d.with_flipped_arc(*((u, v) if d.has_arc(u, v) else (v, u)))
            rows.append(tuple(
                (c.name, c.passed,
                 None if c.witness is None else tuple(sorted((c.witness.u, c.witness.v))))
                for c in verify_construction_rules(mutant, lay).checks))
        assert len(rows) == 151
        # flips inside a free zone (the mesh interior, the starts) break no rule
        assert sum(1 for r in rows if not all(c[1] for c in r)) == 145
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "e3decad0c00989544c116b3bc156dc998973f42570d829ae3a0ca733a5286e7d"

    def test_start_reach_fault(self, reference_counterexample):
        d, lay = reference_counterexample
        # a front start must not reach the ladder
        mutant = d.with_flipped_arc(int(lay.ladder()[5]), int(lay.starts[0]))
        report = verify_construction_rules(mutant, lay)
        assert not report.by_name("start_reach").passed

    def test_layout_mismatch_rejected(self, reference_counterexample):
        d, lay = reference_counterexample
        small, small_lay = d.induced(range(10)), lay
        with pytest.raises(ValueError):
            verify_construction_rules(small, small_lay)


def reference_orientation_witness(adj, rows, cols, want):
    """``_orientation_witness`` by whole-row gathers, the plain reference.

    It takes plain id lists, copies ``adj[rows]`` and ``adj[cols]`` before
    cutting the block out, and pairs shared ids by ``np.intersect1d`` on
    every block.  It reads both sides of every block, so a verifier that
    trusts a passing tournament rule is compared with one that does not.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    fwd = adj[rows][:, cols]
    rev = adj[cols][:, rows].T
    bad = fwd == rev if want is None else (fwd != want) | (rev == want)
    _, same_r, same_c = np.intersect1d(rows, cols, return_indices=True)
    bad[same_r, same_c] = False
    if not bad.any():
        return None
    i, j = divmod(int(bad.argmax()), cols.size)
    u, v = int(rows[i]), int(cols[j])
    if want is None:
        return RuleWitness(u, v, "exactly one arc")
    if np.broadcast_to(want, bad.shape)[i, j]:
        return RuleWitness(u, v, f"{u}->{v} only")
    return RuleWitness(u, v, f"{v}->{u} only")


def reference_reservoir_witness(adj, lay):
    """The ``reservoir_regular`` witness from one gathered reservoir block."""
    res = lay.reservoir()
    sub = adj[res][:, res]
    outs, ins = sub.sum(axis=1), sub.sum(axis=0)
    if (outs == outs[0]).all() and (ins == ins[0]).all():
        return None
    v = int(res[int(np.argmax(outs != outs[0]))])
    return RuleWitness(v, v, "reservoir must induce a regular tournament")


def reference_track_witness(adj, track):
    """The ``track_paths`` witness, one track arc at a time."""
    for i, t in itertools.product(range(track.shape[0]), range(track.shape[1] - 1)):
        u, v = int(track[i, t]), int(track[i, t + 1])
        if not adj[u, v]:
            return RuleWitness(u, v, f"{u}->{v} missing (track arc)")
    return None


def _reference_checks(d, lay):
    """Every check of the verifier, read without any of its code paths.

    Each ``_wiring`` block is read on both sides by row gathers, the
    ``tournament`` rule over all pairs at once, the track arcs one by one
    and the reservoir's degrees from one gathered block.
    """
    adj = d.adjacency
    everyone = np.arange(d.n)
    found = {name: next(filter(None, (reference_orientation_witness(adj, rows.ids, cols.ids, want)
                                      for rows, cols, want in blocks)), None)
             for name, blocks in counterexample._wiring(lay).items()}
    found["tournament"] = reference_orientation_witness(adj, everyone, everyone, None)
    found["track_paths"] = reference_track_witness(adj, lay.track)
    found["reservoir_regular"] = reference_reservoir_witness(adj, lay)
    return tuple(RuleCheck(name, found[name])
                 for name in CORE_RULES + EXTRA_CHECKS)


def _sides(adj, rows, cols, want):
    """A query of plain ids as ``_orientation_witness`` takes it."""
    n = adj.shape[0]
    return adj, counterexample._side(rows, n), counterexample._side(cols, n), want


@st.composite
def _witness_queries(draw):
    n = draw(st.integers(1, 10))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adj = np.array(cells, dtype=bool).reshape(n, n)
    np.fill_diagonal(adj, False)
    # any valid index list (repeats and negative ids included), or a
    # progression, which the verifier reads through a slice
    arbitrary = st.lists(st.integers(-n, n - 1), max_size=n)
    progression = st.builds(lambda first, step, size: first + step * np.arange(size),
                            st.integers(-n, n - 1), st.integers(-3, 3),
                            st.integers(1, n)).filter(
        lambda ids: (ids >= -n).all() and (ids < n).all())
    rows, cols = (np.asarray(draw(st.one_of(arbitrary, progression)), dtype=np.int64)
                  for _ in range(2))
    grid = st.lists(st.booleans(), min_size=rows.size * cols.size,
                    max_size=rows.size * cols.size).map(
        lambda b: np.array(b, dtype=bool).reshape(rows.size, cols.size))
    want = draw(st.one_of(st.sampled_from([None, True, False]), grid))
    return adj, rows, cols, want


@given(_witness_queries())
@example((np.triu(np.ones((4, 4), dtype=bool), 1), np.array([0, 1, 3, 3]),
          np.arange(4), None))  # both ends and first step of a progression
@settings(max_examples=300, deadline=None)
def test_orientation_witness_matches_reference(query):
    assert counterexample._orientation_witness(*_sides(*query)) == \
        reference_orientation_witness(*query)


def test_side_of_a_progression_from_n_is_its_ids():
    # a descending progression that starts at n is out of range: read as
    # slice(n, n - 3, -1) it would clip silently to rows n - 1 and n - 2
    n = 10
    side = counterexample._side(np.arange(n, n - 3, -1), n)
    assert not isinstance(side.index, slice)
    assert side.index.tolist() == [n, n - 1, n - 2]
    with pytest.raises(IndexError):
        np.zeros((n, n), dtype=bool)[counterexample._block_index(side.index, slice(None))]


@st.composite
def _write_queries(draw):
    # distinct ids, as a progression (either direction) or in any order;
    # rows and cols are two disjoint roles, or one role with itself
    n = draw(st.integers(2, 12))
    ids = draw(st.one_of(
        st.permutations(range(n)),
        st.builds(lambda first, step: list(range(first, -1 if step < 0 else n, step)),
                  st.integers(0, n - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]))))
    ids = np.asarray(ids, dtype=np.int64)
    grid = lambda r, c: st.lists(st.booleans(), min_size=r * c, max_size=r * c).map(
        lambda b: np.array(b, dtype=bool).reshape(r, c))
    if draw(st.booleans()):
        ori = draw(grid(ids.size, ids.size))
        return n, ids, ids, np.triu(ori, 1) | np.tril(~ori.T, -1)
    cut = draw(st.integers(0, ids.size))
    rows, cols = ids[:cut], ids[cut:]
    return n, rows, cols, draw(st.one_of(st.booleans(), grid(rows.size, cols.size)))


@given(_write_queries())
@settings(max_examples=300, deadline=None)
def test_write_puts_in_exactly_what_the_witness_reads(query):
    n, rows, cols, want = query
    adj = np.zeros((n, n), dtype=bool)
    r = counterexample._side(rows, n)
    c = r if rows is cols else counterexample._side(cols, n)
    counterexample._write(adj, r, c, want)
    assert counterexample._orientation_witness(adj, r, c, want) is None
    # one arc per pair of the block, and none elsewhere
    same = rows is cols
    pairs = rows.size * (rows.size - 1) // 2 if same else rows.size * cols.size
    block = np.zeros((n, n), dtype=bool)
    block[np.ix_(rows, cols)] = block[np.ix_(cols, rows)] = True
    assert not adj.diagonal().any()
    assert np.count_nonzero(adj) == pairs == np.count_nonzero(adj & block)


@given(n=st.one_of(st.sampled_from([0, 1, 2, 255, 256, 257, 513]), st.integers(0, 600)),
       seed=st.integers(0, 2 ** 64 - 1), odd=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_band_blocks_match_the_whole_block(n, seed, odd):
    # A tournament with up to `odd` pairs given both arcs or none, read
    # through ids in random order: the first band with a bad pair names the
    # pair that the whole ids x ids block names, and the banded predicates
    # agree with the whole-matrix counts.  Bad pairs favour the rows at band
    # edges, as positions in ids or as vertices.
    rng = np.random.default_rng(seed)
    ori = rng.random((n, n)) < 0.5
    adj = np.triu(ori, 1) | np.tril(~ori.T, -1)
    ids = rng.permutation(n)
    edges = [p for p in (0, 1, 254, 255, 256, 257, 511, 512, n - 2) if 0 <= p < n - 1]
    for _ in range(odd if n > 1 else 0):
        u = int(rng.choice(edges)) if rng.random() < 0.5 else int(rng.integers(n))
        v = int(rng.choice([w for w in ((u + 1) % n, n - 1, int(rng.integers(n))) if w != u]))
        if rng.random() < 0.5:
            u, v = ids[u], ids[v]
        adj[u, v] = adj[v, u] = rng.random() < 0.5
    bands = (counterexample._orientation_witness(*_sides(adj, ids[rows], ids[cols], None))
             for rows, cols in _upper_bands(n))
    assert next(filter(None, bands), None) == \
        reference_orientation_witness(adj, ids, ids, None)
    everyone = np.arange(n)
    assert counterexample._tournament_witness(Digraph(adj, copy=False)) == \
        reference_orientation_witness(adj, everyone, everyone, None)
    d = Digraph(adj, copy=False)
    assert is_tournament(d) == (np.count_nonzero(adj ^ adj.T) == n * (n - 1))
    assert is_semicomplete(d) == (np.count_nonzero(adj | adj.T) == n * (n - 1))


@st.composite
def _small_near_tournaments(draw):
    # a tournament on 1..20 vertices with up to three pairs given both arcs
    # or none
    n = draw(st.integers(1, 20))
    ori = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                   dtype=bool).reshape(n, n)
    adj = np.triu(ori, 1) | np.tril(~ori.T, -1)
    vertex = st.integers(0, n - 1)
    for u, v, both in draw(st.lists(st.tuples(vertex, vertex, st.booleans()), max_size=3)):
        if u != v:
            adj[u, v] = adj[v, u] = both
    return adj


@given(_small_near_tournaments())
@settings(max_examples=300, deadline=None)
def test_tournament_rule_at_band_edges(adj):
    # Bands of 4 rows put band edges, and a last partial band, at every
    # order up to 20: the banded count must find the bad pair that the
    # whole-block reference finds first, row-major.
    everyone = np.arange(adj.shape[0])
    with mock.patch.object(digraph, "_BAND", 4):
        got = counterexample._tournament_witness(Digraph(adj, copy=False))
        assert is_tournament(Digraph(adj, copy=False)) == (got is None)
    assert got == reference_orientation_witness(adj, everyone, everyone, None)


@pytest.mark.parametrize("pairs", [
    [(255, 256, True)],                    # the last row of the first band
    [(256, 257, False), (300, 255, True)],  # the earlier band wins, read from its mirror
    [(256, 1763, True)],                   # the first row of the second band
    [(1600, 1536, False), (1763, 1700, True)],  # the last, partial band
    [(1763, 1762, False)],                 # its last pair
])
def test_tournament_rule_at_the_reference_band_edges(pairs):
    # Bands of 256 rows: 0-255, 256-511, ..., 1536-1763.
    d, lay = _instance(None)
    adj = d.adjacency.copy()
    for u, v, both in pairs:
        adj[u, v] = adj[v, u] = both
    mutant = Digraph(adj, copy=False)
    report = verify_construction_rules(mutant, lay)
    assert report.checks == _reference_checks(mutant, lay)
    u, v = sorted(min(pairs, key=lambda p: sorted(p[:2]))[:2])
    assert report.by_name("tournament").witness == RuleWitness(u, v, "exactly one arc")


@pytest.mark.parametrize("rule", CORE_RULES)
def test_builder_needs_every_rule_of_the_table(rule):
    # the builder writes the table and nothing else outside the free zones
    # and the reservoir, so dropping one rule leaves pairs with no arc
    wiring = counterexample._wiring
    with mock.patch.object(counterexample, "_wiring", lambda lay: {
            name: blocks for name, blocks in wiring(lay).items() if name != rule}):
        with pytest.raises(AssertionError, match="non-tournament"):
            build_counterexample(42, 1764)


@functools.cache
def _instance(seed):
    return build_counterexample(42, 1764, seed=seed)


def _role_groups(lay):
    groups = [lay.rung(t) for t in range(lay.l + 2)]
    groups += [lay.track[lay.half:, t] for t in range(lay.l + 2)]
    return groups + [lay.core, lay.relays, lay.targets, lay.mirrors, lay.starts,
                     np.array([lay.outlet])]


# a vertex as (role group, position), so every role is drawn about as often
_vertex = st.tuples(st.integers(0, 15), st.integers(0, 2000))


@given(seed=st.sampled_from([None, 99]),
       flips=st.lists(st.tuples(_vertex, _vertex), min_size=1, max_size=4),
       odd=st.lists(st.tuples(_vertex, _vertex, st.booleans()), max_size=2))
@settings(max_examples=60, deadline=None)
def test_verifier_matches_gather_reference(seed, flips, odd):
    # Arc flips, plus pairs given both arcs or none, which leave a
    # non-tournament; every check must match the gather-based reference in
    # verdict, witness pair and expected text.
    d, lay = _instance(seed)
    groups = _role_groups(lay)

    def vertex(ref):
        ids = groups[ref[0]]
        return int(ids[ref[1] % len(ids)])

    adj = d.adjacency.copy()
    for a, b in flips:
        u, v = vertex(a), vertex(b)
        if u != v:
            adj[u, v], adj[v, u] = adj[v, u], adj[u, v]
    for a, b, both in odd:
        u, v = vertex(a), vertex(b)
        if u != v:
            adj[u, v] = adj[v, u] = both
    mutant = Digraph(adj, copy=False)
    assert verify_construction_rules(mutant, lay).checks == _reference_checks(mutant, lay)


def _relabelled(d, lay, ids):
    """The instance with vertex v renamed ids[v], and its layout to match."""
    adj = np.zeros_like(d.adjacency)
    adj[np.ix_(ids, ids)] = d.adjacency
    roles = {name: ids[getattr(lay, name)]
             for name in ("track", "core", "relays", "targets", "mirrors", "starts")}
    return Digraph(adj, copy=False), dataclasses.replace(lay, **roles,
                                                         outlet=int(ids[lay.outlet]))


@pytest.mark.parametrize("relabel", ["reversed", "shuffled", "overlapping", "repeated",
                                     "reservoir_repeat"])
def test_verifier_matches_reference_on_other_layouts(relabel):
    # Layouts read from JSON need not be arithmetic progressions, nor even
    # disjoint: descending roles that end at vertex 0, shuffled ids,
    # targets that share half their ids with the relays, a mesh vertex
    # listed twice, which pairs it with itself inside the mesh's one-arc
    # blocks, and a head listed again in the core, which the reservoir's
    # degrees count twice.
    d, lay = _instance(None)
    n, k = d.n, lay.k
    if relabel == "reversed":
        d, lay = _relabelled(d, lay, (n - 2 - np.arange(n)) % n)
        assert lay.starts[-1] == 0
    elif relabel == "shuffled":
        d, lay = _relabelled(d, lay, np.random.default_rng(5).permutation(n))
    elif relabel == "overlapping":
        lay = dataclasses.replace(lay, targets=lay.targets - k // 2)
    elif relabel == "reservoir_repeat":
        lay = dataclasses.replace(lay, core=np.append(lay.core, lay.heads()[0]))
        assert not verify_construction_rules(d, lay).by_name("reservoir_regular").passed
    else:
        track = lay.track.copy()
        track[-1, 1] = track[-2, 1]
        lay = dataclasses.replace(lay, track=track)
        assert not verify_construction_rules(d, lay).by_name("ladder_over_mesh").passed
    rng = np.random.default_rng(6)
    for flips in range(3):
        mutant = d
        for _ in range(flips):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            mutant = mutant.with_flipped_arc(*((u, v) if mutant.has_arc(u, v) else (v, u)))
        assert verify_construction_rules(mutant, lay).checks == _reference_checks(mutant, lay)


def test_both_arcs_in_an_oriented_block_fail_it_and_the_tournament_rule():
    # The pair keeps its arc target->mirror and gains mirror->target, so the
    # instance is no tournament and every block is read on both sides.
    d, lay = _instance(None)
    u, v = int(lay.targets[0]), int(lay.mirrors[3])
    adj = d.adjacency.copy()
    assert adj[u, v] and not adj[v, u]
    adj[v, u] = True
    mutant = Digraph(adj, copy=False)
    report = verify_construction_rules(mutant, lay)
    assert report.checks == _reference_checks(mutant, lay)
    assert [c.name for c in report.failed()] == ["tier_dominance", "tournament"]
    assert report.by_name("tier_dominance").witness == RuleWitness(u, v, f"{u}->{v} only")
    assert report.by_name("tournament").witness == RuleWitness(u, v, "exactly one arc")


def test_reservoir_in_degrees_are_read_off_a_tournament():
    # Reservoir vertex b keeps a->b, gains b->a and loses b->c: every
    # out-degree stays 713, but a and c no longer have in-degree 713.  The
    # instance is no tournament, so the in-degrees are read, and the
    # witness is the first reservoir vertex, as every out-degree is equal.
    d, lay = _instance(None)
    res = lay.reservoir()
    adj = d.adjacency.copy()
    b = int(res[0])
    a, c = int(res[adj[res, b]][0]), int(res[adj[b, res]][0])
    adj[b, a], adj[b, c] = True, False
    mutant = Digraph(adj, copy=False)
    report = verify_construction_rules(mutant, lay)
    assert report.checks == _reference_checks(mutant, lay)
    assert report.by_name("reservoir_regular").witness == \
        RuleWitness(b, b, "reservoir must induce a regular tournament")
    assert not report.by_name("tournament").passed


def test_build_and_verify_allocate_no_whole_matrix_copies():
    # One build peaks near 1.9 n^2 bytes: the adjacency, the reservoir's
    # circulant and the banded compare of the tournament check.  One verify
    # peaks near 0.3 n^2: every block is a view, one gathered block or, for
    # the one-arc rules, one band of the upper triangle.  Row gathers and
    # index arrays peaked at 11.5 n^2 and 3.1 n^2, and the whole-matrix
    # compare of the tournament check at 2.7 n^2 and 1.1 n^2.
    n = 1764
    d, lay = _instance(None)
    tracemalloc.start()
    try:
        build_counterexample(42, n)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = verify_construction_rules(d, lay)
        verify_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert build_peak <= 4 * n * n, build_peak / n ** 2
    assert verify_peak <= 3 * n * n, verify_peak / n ** 2


def test_pair_checks_allocate_bands_not_the_matrix():
    # Each pair check holds about two bands of 256 x n compare results
    # (measured 0.28 n^2 each, and 0.31 n^2 for a verify); the whole-matrix
    # compare took n^2.
    n = 1764
    d, lay = _instance(None)
    peaks = []
    tracemalloc.start()
    try:
        for check in (is_tournament, is_semicomplete,
                      lambda d: verify_construction_rules(d, lay).all_passed):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert check(d)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 0.5 * n * n, [p / n ** 2 for p in peaks]


@pytest.mark.parametrize("check", ["is_tournament", "is_semicomplete", "verify"])
def test_first_check_packs_within_bounds(check):
    # The first check of a fresh digraph packs its rows and columns and
    # keeps both, 0.25 n^2 bytes and the padding rows; building them holds
    # one more n^2 / 8 for the tile transpose.  The digraphs of _instance
    # are packed by their builds, so the test above never packs.
    n = 1764
    d, lay = _instance(None)
    run = {"is_tournament": is_tournament, "is_semicomplete": is_semicomplete,
           "verify": lambda d: verify_construction_rules(d, lay).all_passed}[check]
    fresh = Digraph(d.adjacency)
    tracemalloc.start()
    try:
        assert run(fresh)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fresh._packing is not None
    assert peak <= 0.5 * n * n, peak / n ** 2
    assert kept <= 0.25 * n * n + 16 * n, (kept - 0.25 * n * n) / n


class TestPropertyTwo:
    def test_reference_paths(self, reference_counterexample):
        d, lay = reference_counterexample
        system = verify_property_two(d, lay)
        assert len(system) == 43
        assert {p.length for p in system} <= {1, 2}
        banned = set(map(int, lay.grid())) | set(map(int, lay.relays)) \
            | {lay.bypass}
        assert not (system.vertex_set() & banned)
        # paths start in the reservoir and end in targets or the outlet
        targets = set(map(int, lay.targets)) | {lay.outlet}
        reservoir = set(map(int, lay.reservoir()))
        for p in system:
            assert p.first in reservoir
            assert p.last in targets


class TestSampledConnectivity:
    def test_reference_sample_meets_target(self, reference_counterexample):
        d, _ = reference_counterexample
        sample = sampled_connectivity_check(d, target=85, pairs=6, seed=2)
        assert sample.all_ok
        assert sample.min_observed >= 85

    def test_same_seed_same_pairs(self, reference_counterexample):
        d, _ = reference_counterexample
        a = sampled_connectivity_check(d, target=85, pairs=4, seed=3)
        b = sampled_connectivity_check(d, target=85, pairs=4, seed=3)
        assert a.pairs == b.pairs and a.values == b.values

    def test_impossible_target_fails(self, reference_counterexample):
        d, _ = reference_counterexample
        sample = sampled_connectivity_check(d, target=d.n, pairs=2, seed=4)
        assert not sample.all_ok
        assert sample.failures()

    @pytest.mark.parametrize("threads", [2, 0])
    def test_threads_other_than_one_rejected(self, reference_counterexample, threads):
        d, _ = reference_counterexample
        with pytest.raises(ValueError):
            sampled_connectivity_check(d, target=85, pairs=3, seed=5, threads=threads)

    def test_threads_one_is_the_default(self, reference_counterexample):
        d, _ = reference_counterexample
        a = sampled_connectivity_check(d, target=85, pairs=3, seed=5, threads=1)
        b = sampled_connectivity_check(d, target=85, pairs=3, seed=5)
        assert a.pairs == b.pairs and a.values == b.values


class TestLayoutSerialisation:
    def test_json_roundtrip(self, reference_counterexample):
        _, lay = reference_counterexample
        back = CounterexampleLayout.from_json(lay.to_json())
        assert (back.track == lay.track).all()
        assert (back.core == lay.core).all()
        assert back.outlet == lay.outlet
        assert back.bypass == lay.bypass

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data["roles"]["starts"].__setitem__(0, -1), "starts id -1 "),
        (lambda data: data["roles"]["starts"].__setitem__(0, 5000), "starts id 5000 "),
        (lambda data: data["roles"].__setitem__("outlet", 1764), "outlet id 1764 "),
        (lambda data: data.__setitem__("n", 10), "tracks id 10 "),
        (lambda data: data.__setitem__("l", 2), "layout l 2 does not match the 5 steps"),
        (lambda data: data.__setitem__("k", 40), "layout k 40 does not match the 42 track rows"),
        (lambda data: data["roles"]["relays"].pop(), "layout relays hold 41 ids, not k = 42"),
        (lambda data: data["roles"].__setitem__(
            "tracks", [row[:2] for row in data["roles"]["tracks"]]),
         "layout tracks have 2 steps"),
        (lambda data: data["roles"]["relays"].__setitem__(0, data["roles"]["relays"][0] + 0.7),
         r"layout relays id 1595\.7 is not an integer"),
        (lambda data: data["roles"].__setitem__("outlet", data["roles"]["outlet"] + 0.5),
         r"layout outlet id 1763\.5 is not an integer"),
        (lambda data: data.__setitem__("k", 42.9), r"layout k 42\.9 is not an integer"),
        (lambda data: data["roles"]["core"].__setitem__(0, "12"),
         "layout core id '12' is not an integer"),
        (lambda data: data["roles"].__setitem__("outlet", True),
         "layout outlet id True is not an integer"),
        (lambda data: data["roles"]["tracks"][1].pop(),
         "layout tracks are ragged: rows of 4 to 5 steps"),
    ])
    def test_role_ids_out_of_range_rejected(self, reference_counterexample, edit, message):
        # -1 would alias the outlet and 5000 would fail inside numpy.  k and
        # l are the tracks' shape: "l": 2 would fail two rules of a correct
        # instance, "k": 40 and a short tier would fail inside numpy, and
        # two-step tracks with an IndexError in the verifier.  A float, a
        # string and true were read as relay 1595, core 12 and outlet 1, and
        # ragged tracks failed inside numpy.
        _, lay = reference_counterexample
        data = json.loads(lay.to_json())
        edit(data)
        with pytest.raises(ValueError, match=message):
            CounterexampleLayout.from_json(json.dumps(data))
