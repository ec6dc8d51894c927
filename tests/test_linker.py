import hashlib
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semilink.certificates import CertificateError, verify_linkage_certificate
from semilink.digraph import Digraph, Path
from semilink.dominators import is_nearly_in_dominating_set
from semilink.flows import _cut_value, is_k_connected, vertex_connectivity
from semilink.generators import (near_regular_tournament, random_semicomplete,
                                 random_tournament, transitive_tournament)
from semilink.instances import adjustment_stress_instance, planted_cut_instance
from semilink.linker import (FailureReport, LinkageCertificate,
                             LinkageInstance, LinkerCheckError, LinkerTrace, _SPECIAL,
                             _bipartite_matching, _first_swap, _reroute, adjust_paths,
                             build_bridges,
                             build_dominating_set, build_launches, check_hypotheses,
                             classify_terminals, finalize_deliveries,
                             initial_path_system, link)

from conftest import complete_digraph


class TestLinkageInstance:
    def test_validation(self):
        d = complete_digraph(6)
        with pytest.raises(ValueError):
            LinkageInstance(d, ((0, 1), (1, 2)))  # repeated terminal
        with pytest.raises(ValueError):
            LinkageInstance(d, ((0, 9),))  # out of range
        with pytest.raises(ValueError):
            LinkageInstance(d, ())

    def test_non_integer_terminal_rejected(self):
        # int() used to turn this into the pair (0, 3)
        with pytest.raises(ValueError, match="terminal 0.5 is not an integer"):
            LinkageInstance(complete_digraph(9), ((0.5, 3.2),))

    def test_accessors(self):
        inst = LinkageInstance(complete_digraph(6), ((0, 3), (1, 4)))
        assert inst.k == 2
        assert inst.starts == (0, 1) and inst.targets == (3, 4)


class TestCompleteDigraphs:
    def test_single_pair(self):
        d = complete_digraph(140)
        res = link(LinkageInstance(d, ((0, 1),)))
        assert isinstance(res, LinkageCertificate)
        assert len(res.paths[0]) - 1 <= 7

    def test_three_pairs_with_rich_starts(self):
        d = complete_digraph(200)
        tr = LinkerTrace()
        res = link(LinkageInstance(d, ((0, 1), (2, 3), (4, 5))), trace=tr)
        assert isinstance(res, LinkageCertificate)
        # abundance: everything is reachable, so no reroute round fires
        assert not tr.rounds()
        classify = next(e for e in tr.events if e["phase"] == "classify")
        assert classify["lean"] == []

    def test_provenance_segments_concatenate(self):
        d = complete_digraph(150)
        res = link(LinkageInstance(d, ((0, 1), (2, 3))))
        assert isinstance(res, LinkageCertificate)
        for entry, path in zip(res.provenance, res.paths):
            glued = (entry["launch"] + entry["bridge"][1:]
                     + entry["delivery"][1:])
            assert tuple(glued) == path


class TestRandomTournaments:
    def test_regular_tournament_certificates(self):
        for seed in (3, 4):
            d = near_regular_tournament(251, seed=seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            picks = rng.choice(251, size=4, replace=False)
            pairs = ((int(picks[0]), int(picks[1])),
                     (int(picks[2]), int(picks[3])))
            res = link(LinkageInstance(d, pairs))
            assert isinstance(res, LinkageCertificate)
            verify_linkage_certificate(d, pairs, res.paths)

    def test_lean_instance_skips_adjustment(self):
        d = random_tournament(60, seed=9)
        tr = LinkerTrace()
        res = link(LinkageInstance(d, ((0, 1), (2, 3))), trace=tr)
        assert any(e["phase"] == "adjust-skip" for e in tr.events) or \
            isinstance(res, (LinkageCertificate, FailureReport))
        classify = next(e for e in tr.events if e["phase"] == "classify")
        assert classify["rich"] == []

    def test_underpowered_instances_never_yield_invalid_certificates(self):
        for seed in range(10):
            d = random_tournament(16, seed=800 + seed)
            outcome = link(LinkageInstance(d, ((0, 8), (3, 12))))
            if isinstance(outcome, LinkageCertificate):
                verify_linkage_certificate(d, ((0, 8), (3, 12)), outcome.paths)
            else:
                assert isinstance(outcome, FailureReport)
                assert outcome.step
                assert "hypothes" in outcome.hypothesis_note or \
                    "defect" in outcome.hypothesis_note


class TestStressInstance:
    def test_forces_exactly_one_arc_reroute(self):
        d, pairs = adjustment_stress_instance()
        tr = LinkerTrace()
        res = link(LinkageInstance(d, pairs), trace=tr)
        assert isinstance(res, LinkageCertificate)
        verify_linkage_certificate(d, pairs, res.paths)
        rounds = tr.rounds()
        assert len(rounds) == 1
        assert rounds[0]["case"] == "arc"
        assert rounds[0]["retired_growth"] <= 13  # 7k + 6 at k = 1
        assert rounds[0]["candidates"] >= 1

    def test_pool_needs_3k_free_vertices(self):
        with pytest.raises(ValueError, match="too small"):
            build_dominating_set(complete_digraph(9), [0, 1], [2, 3], LinkerTrace())
        pool = build_dominating_set(complete_digraph(10), [0, 1], [2, 3], LinkerTrace())
        assert pool == [4, 5, 6, 7, 8, 9]

    def test_program_output_conditions(self):
        d, pairs = adjustment_stress_instance()
        starts = [x for x, _ in pairs]
        targets = [y for _, y in pairs]
        tr = LinkerTrace()
        pool = build_dominating_set(d, starts, targets, tr)
        assert pool == [16, 17, 18]
        split = classify_terminals(d, starts, targets, pool, tr)
        assert split.rich == (0,)
        deliveries, special = initial_path_system(d, starts, targets, pool,
                                                  split, tr)
        # the cheapest system swallows the whole reach set
        occupied = {v for p in deliveries.values() for v in p.vertices}
        occupied |= set(special.vertices)
        assert set(split.reach[0]) <= occupied
        result = adjust_paths(d, starts, targets, pool, split, deliveries,
                              special, tr)
        assert set(result.matched) == {0}
        assert result.rounds == 1
        for x, s in result.matched.items():
            assert d.has_arc(x, s)
        system = {v for p in result.deliveries.values() for v in p.vertices}
        system |= set(result.special.vertices)
        assert not (set(result.stand_ins) & system)
        assert result.special.last in set(split.reach_union)


class TestHardFamily:
    def test_own_pairs_end_in_a_degree_report(self, reference_counterexample):
        # The k=42 instance misses the degree hypothesis by two orders of
        # magnitude; a certificate here would contradict the paper.
        d, lay = reference_counterexample
        inst = LinkageInstance(d, tuple(zip(lay.starts.tolist(), lay.targets.tolist())))
        res = link(inst)
        assert isinstance(res, FailureReport)
        assert res.step == "launches"
        assert res.details == {"start": 1721, "terminal": 1721, "count": 0,
                               "required": 1050}
        assert res.hypothesis_note == "hypothesis violated: min out-degree 104 < 13860"
        tr = LinkerTrace()
        res = link(inst, check="exact", trace=tr)
        assert isinstance(res, FailureReport) and res.step == "hypothesis-check"
        assert [e["phase"] for e in tr.events] == ["hypotheses"]


@cache
def _near_regular(n, seed):
    return near_regular_tournament(n, seed=seed)


def _pair_sets(n, k, seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    sets = []
    for _ in range(count):
        picks = [int(v) for v in rng.choice(n, size=2 * k, replace=False)]
        sets.append(tuple(zip(picks[0::2], picks[1::2])))
    return sets


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutputs:
    """Digests of the linker's outputs: the certificate JSON, then the trace JSON.

    A change of any pick, path or trace event changes the digest.
    """

    @pytest.mark.parametrize("n, k, index, digest", [
        (251, 2, 0, "e6e9023b8e8c553543664a47870237373c2cfa4e13dec339a1b1bbe1fd6ea1d8"),
        (251, 2, 1, "5e6b24f995cc2cf87972a74450075e61d7ed03f67799ae1f665ae2bb4f12b23b"),
        (251, 2, 2, "50f8034acde4dfb0fa57212002595fe0f4c6671e490c9e5d409ce5fbaf95ea29"),
        (400, 3, 0, "69404298c8b4bdddf95ae6e7aa3a4090f278e1944e53ff2b84ab7e593e88a330"),
        (400, 3, 1, "5ec93e7833224f1262bd5ba6e986f8901bd05f1c8247ddc7a035244077735754"),
        (400, 3, 2, "7d5d682ac60705bd55c41f40e9eb61ba6da624d529314175d3a53dcff40566d5"),
    ])
    def test_near_regular_certificates(self, n, k, index, digest):
        d = _near_regular(n, 1)
        pairs = _pair_sets(n, k, n, index + 1)[index]
        tr = LinkerTrace()
        res = link(LinkageInstance(d, pairs), trace=tr)
        assert isinstance(res, LinkageCertificate)
        assert _sha256(res.to_json() + tr.to_json()) == digest

    def test_stress_certificate(self):
        d, pairs = adjustment_stress_instance()
        tr = LinkerTrace()
        res = link(LinkageInstance(d, pairs), trace=tr)
        assert _sha256(res.to_json() + tr.to_json()) == \
            "dc9944db1ffffcc4cb54e53670469aef2d542007b5f20fbbcc82eb5cd9ac9ba3"

    def test_hard_family_report(self, reference_counterexample):
        d, lay = reference_counterexample
        res = link(LinkageInstance(d, tuple(zip(lay.starts.tolist(), lay.targets.tolist()))))
        pool = next(e["pool"] for e in res.trace.events if e["phase"] == "dominating-pool")
        assert pool[:6] == [1763, 211, 925, 212, 926, 213] and len(pool) == 126
        assert _sha256(res.to_json()) == \
            "0b2ecc856527b8360720c01d9d60cbec5f42ed9d67004f7b34d5d9ed74b92f3d"


class TestMinCostRelaxations:
    """How many cost relaxations the initial path system's min-cost flow runs."""

    def test_single_arc_deliveries_need_none(self, bellman_calls):
        # every delivery on a near-regular tournament is one arc, pushed by
        # the direct step
        d = _near_regular(251, 1)
        for pairs in _pair_sets(251, 2, 251, 3):
            assert isinstance(link(LinkageInstance(d, pairs)), LinkageCertificate)
        assert bellman_calls == []

    def test_stress_instance_count(self, bellman_calls):
        d, pairs = adjustment_stress_instance()
        assert isinstance(link(LinkageInstance(d, pairs)), LinkageCertificate)
        assert len(bellman_calls) == 2


class TestTheoremHypotheses:
    """Seeded runs on near-regular tournaments that meet the theorem's hypotheses.

    Out-degree >= 7k^2 + 36k is read off the matrix and (2k+1)-connectivity is
    decided exactly, so every run must end in a verified certificate.
    """

    @staticmethod
    def link_all(d, k, seed):
        assert int(d.adjacency.sum(axis=1).min()) >= 7 * k * k + 36 * k
        for pairs in _pair_sets(d.n, k, seed, 6):
            res = link(LinkageInstance(d, pairs))
            assert isinstance(res, LinkageCertificate), res
            verify_linkage_certificate(d, pairs, res.paths)

    def test_one_pair(self):
        # n = 87 meets the degree bound 43 with equality; the exact star
        # search gives kappa = 43 >= 3
        d = near_regular_tournament(87, seed=1)
        assert vertex_connectivity(d) == 43
        self.link_all(d, 1, seed=87)

    @pytest.mark.parametrize("n, seed", [(201, 1), (251, 2)])
    def test_two_pairs(self, n, seed):
        # n = 201 meets the degree bound 100 with equality.  The exact
        # decider settles 5-connectivity; vertex_connectivity takes tens of
        # seconds at these orders.
        d = near_regular_tournament(n, seed=seed)
        assert is_k_connected(d, 5)
        self.link_all(d, 2, seed=n + seed)


class TestPlantedCut:
    def test_failure_carries_the_cut(self):
        d, pairs = planted_cut_instance(2)
        res = link(LinkageInstance(d, pairs))
        assert isinstance(res, FailureReport)
        assert res.step == "initial-paths"
        assert res.details["cut"] == [4]  # the gate vertex
        assert "hypothesis violated" in res.hypothesis_note
        # the report serializes cleanly
        assert '"initial-paths"' in res.to_json()


def _mini(arcs, n=48):
    return Digraph.from_arcs(n, arcs)


class TestRerouteBranches:
    def setup_method(self):
        # special path 0 -> 1 -> 2 (terminal 2 is the current spare),
        # host path 3 -> 4 -> 5 -> 6 -> 7 delivering to target 7
        self.base = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)]

    def run(self, extra, host_verts=(3, 4, 5, 6, 7), deliveries_extra=(),
            reach=(), stand_ins=()):
        d = _mini(self.base + extra)
        qstar = {host_verts[-1]: Path(d, host_verts)}
        for verts in deliveries_extra:
            qstar[verts[-1]] = Path(d, verts)
        qstar[_SPECIAL] = Path(d, (0, 1, 2))
        return d, _reroute(d, qstar, host_verts[-1],
                           next_spare=4, reconnect=6,
                           stand_ins=set(stand_ins),
                           reach_union=set(reach) | {4, 5, 6}, k=1)

    def test_direct_arc_case(self):
        d, (case, updates) = self.run([(2, 6)])
        assert case == "arc"
        assert updates[_SPECIAL].vertices == (3, 4)
        assert updates[7].vertices == (0, 1, 2, 6, 7)

    def test_fresh_middle_case(self):
        extra = [(2, w) for w in (8, 9, 10, 11)] + [(w, 6) for w in (8, 9, 10, 11)]
        d, (case, updates) = self.run(extra, reach=(8, 9, 10, 11))
        assert case == "fresh-middle"
        assert updates[_SPECIAL].vertices == (3, 4)
        assert updates[7].vertices == (0, 1, 2, 8, 6, 7)

    def test_carrier_case(self):
        carrier = (20, 21, 22, 23, 24, 25)
        chain = list(zip(carrier, carrier[1:]))
        extra = chain + [(2, w) for w in (21, 22, 23, 24)] \
            + [(w, 6) for w in (21, 22, 23, 24)]
        d, (case, updates) = self.run(
            extra, deliveries_extra=(carrier,), reach=(21, 22, 23, 24))
        assert case == "carrier"
        assert updates[_SPECIAL].vertices == (3, 4)
        assert updates[25].vertices == (0, 1, 2, 22, 23, 24, 25)
        assert updates[7].vertices == (20, 21, 6, 7)

    def test_carrier_special_case(self):
        # middles live on the special path itself
        extra = [(0, 28), (28, 29), (29, 30), (30, 31), (31, 2)] \
            + [(2, w) for w in (28, 29, 30, 31)] \
            + [(w, 6) for w in (28, 29, 30, 31)]
        d = _mini(self.base + extra)
        special = Path(d, (0, 28, 29, 30, 31, 2))
        host = Path(d, (3, 4, 5, 6, 7))
        case, updates = _reroute(
            d, {7: host, _SPECIAL: special}, 7, next_spare=4,
            reconnect=6, stand_ins=set(),
            reach_union={4, 5, 6, 28, 29, 30, 31}, k=1)
        assert case == "carrier-special"
        assert updates[_SPECIAL].vertices == (3, 4)
        assert updates[7].vertices == (0, 28, 6, 7)

    def test_host_middle_case(self):
        host = (3, 4, 5, 6, 40, 41, 42, 43, 7)
        chain = list(zip(host, host[1:]))
        extra = [a for a in chain if a not in self.base] \
            + [(2, w) for w in (40, 41, 42, 43)] \
            + [(w, 6) for w in (40, 41, 42, 43)]
        d, (case, updates) = self.run(
            [a for a in extra if a != (6, 7)], host_verts=host,
            reach=(40, 41, 42, 43))
        assert case == "host-middle"
        assert updates[_SPECIAL].vertices == (3, 4)
        assert updates[7].vertices == (0, 1, 2, 40, 41, 42, 43, 7)

    def test_stand_ins_are_not_middles(self):
        # all four middles exist but two are stand-ins; the two usable ones
        # sit on the carrier, so the carrier case fires
        carrier = (20, 21, 22, 23)
        chain = list(zip(carrier, carrier[1:]))
        extra = chain + [(2, w) for w in (8, 9, 21, 22)] \
            + [(w, 6) for w in (8, 9, 21, 22)]
        d, (case, updates) = self.run(
            extra, deliveries_extra=(carrier,), reach=(8, 9, 21, 22),
            stand_ins=(8, 9))
        assert case == "carrier"
        assert updates[23].vertices == (0, 1, 2, 22, 23)


    def test_truncate_case(self):
        # the next spare sits on the special path itself: keep its prefix
        d = _mini(self.base)
        special = Path(d, (0, 1, 2))
        host = Path(d, (3, 4, 5, 6, 7))
        case, updates = _reroute(
            d, {7: host, _SPECIAL: special}, _SPECIAL, next_spare=1,
            reconnect=2, stand_ins=set(), reach_union={1, 2}, k=1)
        assert case == "truncate"
        assert updates[_SPECIAL].vertices == (0, 1)
        assert list(updates) == [_SPECIAL]


class TestBuildBridges:
    def test_length_three_bridge(self):
        # launch 0, delivery 3 -> 4: no arc 0->3, and the one middle 0->4->3
        # lies on the delivery, so the bridge takes two middles, lowest first
        d = Digraph.from_arcs(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 3),
                                  (0, 6), (6, 7), (7, 3)])
        tr = LinkerTrace()
        bridges = build_bridges(d, [(0, 4)], {0: Path(d, (0,))}, {4: Path(d, (3, 4))},
                                pool=[3, 5], trace=tr)
        assert bridges[0].vertices == (0, 1, 2, 3)
        assert tr.events == [{"phase": "bridge", "start": 0, "target": 4,
                              "path": [0, 1, 2, 3], "anchored_out": 0,
                              "free_middles": 0}]


class TestBuildLaunches:
    # k = 1: start 0 launches in place towards target 1, and pool vertex 2
    # anchors the 25 off-terminal vertices 3..27, each beaten by 0 as well
    @staticmethod
    def launch_from(d):
        return build_launches(d, [0], [1], [2], matched={}, deliveries={},
                              trace=LinkerTrace())

    @staticmethod
    def digraph():
        return Digraph.from_arcs(28, [(u, v) for u in (0, 2) for v in range(3, 28)])

    def test_terminal_with_exactly_25k_anchored_out_neighbours(self):
        assert self.launch_from(self.digraph())[0].vertices == (0,)

    def test_one_fewer_is_refused(self):
        with pytest.raises(LinkerCheckError) as err:
            self.launch_from(self.digraph().with_flipped_arc(0, 3))
        assert err.value.step == "launches"
        assert err.value.details == {"start": 0, "terminal": 0, "count": 24, "required": 25}


class TestFinalizeDeliveries:
    def test_one_step_swap(self):
        d = Digraph.from_arcs(6, [(0, 1), (1, 2), (2, 3), (4, 2), (4, 5)])
        paths = {3: Path(d, (0, 1, 2, 3))}
        out = finalize_deliveries(d, starts=[], pool=[0, 4], deliveries=paths,
                                  stand_ins=[], trace=LinkerTrace())
        assert out[3].vertices == (4, 2, 3)

    def test_two_step_swap(self):
        d = Digraph.from_arcs(7, [(0, 1), (1, 2), (2, 3), (3, 4),
                                  (5, 6), (6, 3)])
        paths = {4: Path(d, (0, 1, 2, 3, 4))}
        out = finalize_deliveries(d, starts=[], pool=[0, 5], deliveries=paths,
                                  stand_ins=[], trace=LinkerTrace())
        assert out[4].vertices == (5, 6, 3, 4)

    def test_banned_middle_blocks_two_step_swap(self):
        d = Digraph.from_arcs(7, [(0, 1), (1, 2), (2, 3), (3, 4),
                                  (5, 6), (6, 3)])
        paths = {4: Path(d, (0, 1, 2, 3, 4))}
        out = finalize_deliveries(d, starts=[], pool=[0, 5], deliveries=paths,
                                  stand_ins=[6], trace=LinkerTrace())
        assert out[4].vertices == (0, 1, 2, 3, 4)

    @staticmethod
    def assert_fixpoint(d, pairs):
        starts = [x for x, _ in pairs]
        targets = [y for _, y in pairs]
        tr = LinkerTrace()
        pool = build_dominating_set(d, starts, targets, tr)
        split = classify_terminals(d, starts, targets, pool, tr)
        deliveries, special = initial_path_system(d, starts, targets, pool,
                                                  split, tr)
        result = adjust_paths(d, starts, targets, pool, split, deliveries,
                              special, tr)
        finals = finalize_deliveries(d, starts, pool, result.deliveries,
                                     result.stand_ins, tr)
        # independent scan: no single-entry swap may remain
        occupied = {v for p in finals.values() for v in p.vertices}
        free_pool = set(pool) - occupied
        for p in finals.values():
            for pos in range(2, len(p.vertices)):
                for u in free_pool:
                    assert not d.has_arc(u, p.vertices[pos])
        # nor a two-step one through a middle off the paths, the starts, the
        # stand-ins and the pool
        banned = occupied | set(starts) | set(result.stand_ins) | set(pool)
        middles = [m for m in range(d.n) if m not in banned]
        for p in finals.values():
            for w in p.vertices[3:]:
                for u in free_pool:
                    assert not any(d.has_arc(u, m) and d.has_arc(m, w) for m in middles)

    def test_fixpoint_has_no_remaining_swap(self):
        self.assert_fixpoint(*adjustment_stress_instance())

    @pytest.mark.parametrize("n, k, index", [(251, 2, 0), (251, 2, 1), (251, 2, 2),
                                             (400, 3, 0), (400, 3, 1), (400, 3, 2)])
    def test_fixpoint_on_seeded_runs(self, n, k, index):
        # the pair sets of TestPinnedOutputs
        self.assert_fixpoint(_near_regular(n, 1), _pair_sets(n, k, n, index + 1)[index])


def _lean_deliveries(seed, n, p_bidirected, k, tournament):
    """(d, starts, pool, deliveries) of a run with no rich start, or None
    when the run has a rich start or too few pool-to-target paths."""
    k = min(k, n // 5)
    d = (random_tournament(n, seed) if tournament
         else random_semicomplete(n, p_bidirected, seed))
    ts = np.random.default_rng(seed).choice(n, size=2 * k, replace=False)
    starts, targets = [int(v) for v in ts[:k]], [int(v) for v in ts[k:]]
    tr = LinkerTrace()
    pool = build_dominating_set(d, starts, targets, tr)
    split = classify_terminals(d, starts, targets, pool, tr)
    if split.rich:
        return None
    try:
        deliveries, special = initial_path_system(d, starts, targets, pool, split, tr)
    except LinkerCheckError:
        return None
    assert special is None
    return d, starts, pool, deliveries


@given(st.integers(0, 2999), st.integers(8, 39), st.floats(0.0, 0.5),
       st.integers(1, 3), st.booleans())
@example(46, 8, 0.0, 1, True)
@settings(max_examples=200, deadline=None)
def test_lean_deliveries_admit_no_swap(seed, n, p_bidirected, k, tournament):
    # Without a rich start the deliveries are a minimum-vertex flow system,
    # so neither swap rule of finalize_deliveries may fire on them.
    run = _lean_deliveries(seed, n, p_bidirected, k, tournament)
    if run is not None:
        d, starts, pool, deliveries = run
        assert _first_swap(d, deliveries, pool, set(starts) | set(pool)) is None


def test_lean_example_has_a_four_vertex_delivery():
    # The pinned example reaches both rules' positions: a three-arc delivery.
    _, _, _, deliveries = _lean_deliveries(46, 8, 0.0, 1, True)
    assert max(len(p.vertices) for p in deliveries.values()) == 4


class TestBipartiteMatching:
    def test_perfect_matching(self):
        d = Digraph.from_arcs(6, [(0, 3), (0, 4), (1, 3), (2, 5)])
        m = _bipartite_matching(d, [0, 1, 2], [3, 4, 5])
        assert len(m) == 3
        assert m[1] == 3 and m[2] == 5 and m[0] == 4

    def test_deficient_side(self):
        d = Digraph.from_arcs(4, [(0, 3), (1, 3), (2, 3)])
        m = _bipartite_matching(d, [0, 1, 2], [3])
        assert len(m) == 1


class TestHypothesisChecks:
    def test_degree_violation_detected(self):
        d = random_tournament(30, seed=1)
        ok, note = check_hypotheses(d, 2, "exact")
        assert not ok and "out-degree" in note

    def test_exact_mode_on_complete(self):
        ok, note = check_hypotheses(complete_digraph(130), 1, "exact")
        assert ok and "3-connected" in note

    def test_sampled_mode(self):
        ok, note = check_hypotheses(complete_digraph(130), 1, "sample:20")
        assert ok and "sampled" in note

    def test_post_mortem_samples_pairs_not_draws(self, monkeypatch):
        import semilink.linker as linker
        calls = []

        def counting_cut(d, u, v, **kwargs):
            calls.append((u, v))
            return _cut_value(d, u, v, **kwargs)

        monkeypatch.setattr(linker, "_cut_value", counting_cut)
        note = linker._hypothesis_post_mortem(complete_digraph(50), 1, sample_pairs=200)
        assert "hold" in note
        assert len(calls) == 200 and all(u != v for u, v in calls)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check_hypotheses(complete_digraph(130), 1, "guess")

    def test_sample_of_no_pairs_rejected(self):
        for mode in ("sample:0", "sample:-4"):
            with pytest.raises(ValueError):
                check_hypotheses(complete_digraph(130), 1, mode)

    def test_link_with_upfront_check_failure(self):
        d = random_tournament(20, seed=2)
        res = link(LinkageInstance(d, ((0, 1),)), check="exact")
        assert isinstance(res, FailureReport)
        assert res.step == "hypothesis-check"

    def test_link_rejects_non_semicomplete(self):
        d = Digraph.from_arcs(5, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            link(LinkageInstance(d, ((0, 2),)))


class TestCertificateVerifier:
    def test_rejects_wrong_endpoints(self):
        d = complete_digraph(5)
        with pytest.raises(CertificateError, match="expected 0->2"):
            verify_linkage_certificate(d, [(0, 2)], [(0, 1)])

    def test_rejects_shared_vertex(self):
        d = complete_digraph(6)
        with pytest.raises(CertificateError, match="both path"):
            verify_linkage_certificate(d, [(0, 2), (3, 4)],
                                       [(0, 1, 2), (3, 1, 4)])

    def test_rejects_missing_arc(self):
        d = Digraph.from_arcs(3, [(0, 1)])
        with pytest.raises(CertificateError, match="missing arc"):
            verify_linkage_certificate(d, [(0, 2)], [(0, 2)])

    def test_rejects_vertex_n(self):
        # both endpoints match the pair, so only the range check stands
        # between vertex 3 and numpy's IndexError on the arc (0, 3)
        with pytest.raises(CertificateError, match="path 0 contains invalid vertex 3"):
            verify_linkage_certificate(transitive_tournament(3), [(0, 3)], [(0, 3)])

    @pytest.mark.parametrize("entry", [1.5, True])
    def test_rejects_non_integer_entry(self, entry):
        # these used to raise numpy's IndexError, or its ambiguous truth value
        with pytest.raises(CertificateError, match=f"path 0 contains invalid vertex {entry}"):
            verify_linkage_certificate(complete_digraph(3), [(0, 2)], [(0, entry, 2)])

    def test_rejects_wrong_count(self):
        with pytest.raises(CertificateError, match="expected 2 paths"):
            verify_linkage_certificate(complete_digraph(5), [(0, 1), (2, 3)],
                                       [(0, 1)])

    def test_accepts_valid(self):
        d = complete_digraph(6)
        verify_linkage_certificate(d, [(0, 2), (3, 5)], [(0, 1, 2), (3, 4, 5)])


def _relabel(d, starts, targets, pool):
    """Map pool ids into the id space of d minus the terminals."""
    kept = np.setdiff1d(np.arange(d.n), list(starts) + list(targets))
    return [int(i) for i in np.searchsorted(kept, pool)]


@given(st.integers(0, 10 ** 6), st.integers(5, 45), st.floats(0.0, 0.6),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_pool_is_nearly_in_dominating_off_the_terminals(seed, n, p_bidirected, k):
    # Each pick is checked on its own; the pool as a whole then passes the
    # set-level check in d minus the terminals, which link() does not run.
    k = min(k, n // 5)
    d = random_semicomplete(n, p_bidirected, seed)
    picks = np.random.default_rng(seed).choice(n, size=2 * k, replace=False)
    starts, targets = [int(v) for v in picks[:k]], [int(v) for v in picks[k:]]
    pool = build_dominating_set(d, starts, targets, LinkerTrace())
    kept = [v for v in range(n) if v not in starts + targets]
    rest = d.induced(kept)
    members = _relabel(d, starts, targets, pool)
    assert [kept[i] for i in members] == pool
    assert is_nearly_in_dominating_set(rest, members)
