import hashlib
import itertools

import numpy as np
import pytest

from semilink.counterexample import (CORE_RULES, CounterexampleLayout,
                                     CounterexampleParams,
                                     build_counterexample,
                                     sampled_connectivity_check,
                                     verify_construction_rules,
                                     verify_property_two)
from semilink.digraph import _MAX_ORDER, is_tournament


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


class TestRuleVerifier:
    def test_fresh_build_passes_everything(self, reference_counterexample):
        d, lay = reference_counterexample
        report = verify_construction_rules(d, lay)
        assert report.all_passed
        assert report.core_passed
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
