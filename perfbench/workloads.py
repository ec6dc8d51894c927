"""The four benchmark workloads.

A workload makes its inputs from the benchmark seed (``generate``), derives
the expected answers from them independently (``references``), and hands the
runner a fixed cycle of operations.  A cycle always has the same mix of
operation kinds, so a run made of whole cycles measures the same mix
whatever its length.

Every call into the library goes through a module attribute at call time
(``flows.is_k_connected``), so the tracer's wrappers and the self-test's
injected faults see each call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from semilink import (certificates, counterexample, dominators, flows,
                      generators, instances, linker, oracle)
from semilink.digraph import Digraph

from reference import (check_cut_certificate, check_paths,
                       circulant_connectivity, k_connected_reference,
                       min_semidegree, require, strict_domination_ok)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def child_seed(*tags: int) -> int:
    return int(np.random.SeedSequence(list(tags)).generate_state(1)[0])


def adjacency_digest(d) -> str:
    return hashlib.sha1(np.ascontiguousarray(d.adjacency).tobytes()).hexdigest()


# -- link-stream --------------------------------------------------------------

class LinkStream:
    name = "link-stream"
    why = ("link() on near-regular tournaments (n=251 k=2, n=400 k=3) plus the "
           "reroute stress instance: dominators and min-cost flow, no local_cut")
    warmup_cycles = 1
    trace_cycles = 100
    SIZES = ((251, 2), (400, 3))

    def generate(self, seed: int, smoke: bool) -> dict:
        graphs_per_size = 1 if smoke else 2
        pair_sets = 8 if smoke else 48
        corpus = {}
        for n, k in self.SIZES:
            graphs = []
            for g in range(graphs_per_size):
                d = generators.near_regular_tournament(n, seed=child_seed(seed, n, g))
                rng = np.random.default_rng(child_seed(seed, n, g, 1))
                sets = []
                for _ in range(pair_sets):
                    picks = [int(v) for v in rng.choice(n, size=2 * k, replace=False)]
                    sets.append(tuple(zip(picks[0::2], picks[1::2])))
                graphs.append((d, sets))
            corpus[n] = graphs
        return {"corpus": corpus, "stress": instances.adjustment_stress_instance()}

    def references(self, inputs: dict) -> dict:
        """The linker's hypotheses hold on every digraph, so each query has a linkage.

        Out-degree >= 7k^2 + 36k is read off the matrix; (2k+1)-connectivity
        comes from the independent connectivity reference.
        """
        refs = {}
        for (n, k), graphs in zip(self.SIZES, inputs["corpus"].values()):
            for g, (d, _) in enumerate(graphs):
                degree = int(d.adjacency.sum(axis=1).min())
                connected = k_connected_reference(d, 2 * k + 1, flows.local_cut)
                require(degree >= 7 * k * k + 36 * k and connected,
                        f"linker hypotheses fail on digraph {n}-{g}")
                refs[f"{n}-{g}"] = {"min_out_degree": degree,
                                    f"{2 * k + 1}-connected": connected}
        return refs

    def cycle(self, inputs: dict, refs: dict, j: int) -> list[Op]:
        corpus = inputs["corpus"]
        ops = []
        for slot, n in ((3 * j, 251), (3 * j + 1, 251), (3 * j + 2, 251), (j, 400)):
            graphs = corpus[n]
            g = slot % len(graphs)
            d, sets = graphs[g]
            pairs = sets[(slot // len(graphs)) % len(sets)]
            ops.append(self._op(f"link-{n}", d, pairs))
        d, pairs = inputs["stress"]
        ops.append(self._op("link-stress", d, pairs))
        return ops

    @staticmethod
    def _op(kind: str, d, pairs) -> Op:
        """A certificate is expected on every query: the paper's hypotheses
        hold on the near-regular digraphs (see ``references``), and the stress
        instance is built to be linkable after one reroute round."""
        def call():
            return linker.link(linker.LinkageInstance(d, pairs))

        def check(outcome):
            require(isinstance(outcome, linker.LinkageCertificate),
                    f"{kind}: no certificate ({getattr(outcome, 'step', outcome)})")
            require(tuple(outcome.pairs) == tuple(pairs), f"{kind}: pairs changed")
            certificates.verify_linkage_certificate(d, pairs, outcome.paths)
            check_paths(d.adjacency, outcome.paths, [x for x, _ in pairs],
                        [y for _, y in pairs])

        return Op(kind, call, check)


# -- connectivity-decide --------------------------------------------------------

class ConnectivityDecide:
    name = "connectivity-decide"
    why = ("is_k_connected(d, 2k+1) prechecks at n=251 cap 5 and n=400 cap 7, "
           "plus seeded no-instances: capped local_cut dominates")
    warmup_cycles = 0
    trace_cycles = 1
    SIZES = ((251, 5), (400, 7))
    SMOKE_SIZES = ((31, 5), (41, 7))
    YES = (5, 1)  # yes-digraphs per size; one no-instance per size

    def generate(self, seed: int, smoke: bool) -> dict:
        sizes = self.SMOKE_SIZES if smoke else self.SIZES
        yes_counts = (1, 1) if smoke else self.YES
        out = {"sizes": sizes, "yes": {}, "no": {}}
        for (n, cap), count in zip(sizes, yes_counts):
            yes = [generators.near_regular_tournament(n, seed=child_seed(seed, n, g))
                   for g in range(count)]
            out["yes"][n] = yes
            out["no"][n] = [self._deficient(yes[0], cap, child_seed(seed, n, 0, 2))]
        return out

    @staticmethod
    def _deficient(d, cap: int, seed: int):
        """Flip arcs at one seeded vertex until one of its semidegrees is cap - 1.

        The vertex lies in the middle half of the vertex order.  The decision
        finds it in its first star, after a share of that star proportional
        to the vertex's position, so the band keeps the seed from moving the
        early exit's cost by more than a few percent of a cycle.
        """
        rng = np.random.default_rng(seed)
        adj = d.adjacency.copy()
        n = adj.shape[0]
        v = int(rng.integers(n // 4, 3 * n // 4))
        view = adj if rng.integers(2) else adj.T  # out- or in-degree
        nbrs = np.flatnonzero(view[v])
        flip = rng.choice(nbrs, size=nbrs.size - (cap - 1), replace=False)
        view[v, flip] = False
        view[flip, v] = True
        return type(d)(adj, copy=False)

    def references(self, inputs: dict) -> dict:
        refs = {}
        for n, cap in inputs["sizes"]:
            for g, d in enumerate(inputs["yes"][n]):
                refs[f"yes-{n}-{g}"] = k_connected_reference(d, cap, flows.local_cut)
            for g, d in enumerate(inputs["no"][n]):
                # Known from the construction: a semidegree of cap - 1.
                require(min_semidegree(d.adjacency) == cap - 1, "no-instance not deficient")
                refs[f"no-{n}-{g}"] = False
        return refs

    def cycle(self, inputs: dict, refs: dict, j: int) -> list[Op]:
        """Every input once: the same decisions whatever the cycle number."""
        return [self._op(f"{label}-{n}", d, cap, refs[f"{label}-{n}-{g}"])
                for label in ("yes", "no") for n, cap in inputs["sizes"]
                for g, d in enumerate(inputs[label][n])]

    @staticmethod
    def _op(kind: str, d, cap: int, expected: bool) -> Op:
        def check(verdict):
            require(verdict is expected, f"{kind}: verdict {verdict}, expected {expected}")

        return Op(kind, lambda: flows.is_k_connected(d, cap), check)


# -- hard-family ------------------------------------------------------------------

class HardFamily:
    name = "hard-family"
    why = ("certify the k=42 n=1764 hard tournament: rules, escape paths, five "
           "seeded single-arc faults, sampled uncapped cuts vs 85")
    warmup_cycles = 0
    trace_cycles = 2
    K, N = 42, 1764
    SAMPLE_SEED, PAIRS = 0, 2

    def generate(self, seed: int, smoke: bool) -> dict:
        """Five seeded faults by layout position, one per rule of criterion 8.

        The sampled pairs do not depend on the benchmark seed: uncapped cut
        times differ by up to 10x between pairs, so freshly sampled pairs
        per run would swamp any change being measured.  Every op certifies
        the same pairs.
        """
        k, l = self.K, self.K // 13
        half = k // 2
        core = counterexample.CounterexampleParams(k, self.N).reservoir_size - k
        rng = np.random.default_rng(child_seed(seed, 42))
        t = int(rng.integers(1, l + 1))
        a, b = sorted(int(x) for x in rng.choice(half, size=2, replace=False))
        faults = (
            ("rung_order", ("rung", t, a), ("rung", t, b)),
            ("ladder_over_mesh", ("ladder", int(rng.integers(half * l))),
             ("mesh", int(rng.integers((k - half) * l)))),
            ("tail_relay_split", ("tails", int(rng.integers(k))),
             ("relays", int(rng.integers(k)))),
            ("start_target", ("starts", int(rng.integers(k))),
             ("targets", int(rng.integers(k)))),
            ("outlet", ("core", int(rng.integers(1, core))), ("outlet",)),
        )
        return {"faults": faults, "pairs": 1 if smoke else self.PAIRS}

    def references(self, inputs: dict) -> dict:
        """The paper's claims about the instance, and certified cut values of
        the pairs the sampler is documented to draw (PCG64 seeded with the
        sampling seed, two integers per draw, u == v redrawn)."""
        d, _ = counterexample.build_counterexample(self.K, self.N)
        rng = np.random.Generator(np.random.PCG64(self.SAMPLE_SEED))
        pairs = []
        while len(pairs) < inputs["pairs"]:
            u, v = (int(x) for x in rng.integers(0, d.n, size=2))
            if u != v:
                pairs.append((u, v))
        values = [check_cut_certificate(d.adjacency, u, v, flows.local_cut(d, u, v))
                  for u, v in pairs]
        return {"core_rules": len(counterexample.CORE_RULES),
                "escape_paths": self.K + 1, "min_sampled_cut": 2 * self.K + 1,
                "adjacency_sha1": adjacency_digest(d), "sampled": tuple(zip(pairs, values))}

    def cycle(self, inputs: dict, refs: dict, j: int) -> list[Op]:
        return [self._op(inputs["faults"], inputs["pairs"], refs)]

    @staticmethod
    def _vertex(lay, ref) -> int:
        if ref[0] == "outlet":
            return int(lay.outlet)
        if ref[0] == "rung":
            return int(lay.rung(ref[1])[ref[2]])
        ids = getattr(lay, ref[0])
        ids = ids() if callable(ids) else ids
        return int(ids[ref[1]])

    def _op(self, faults, pairs: int, refs: dict) -> Op:
        k, n = self.K, self.N

        def call():
            d, lay = counterexample.build_counterexample(k, n)
            rules = counterexample.verify_construction_rules(d, lay)
            escape = counterexample.verify_property_two(d, lay)
            caught = []
            for rule, a, b in faults:
                u, v = self._vertex(lay, a), self._vertex(lay, b)
                if not d.has_arc(u, v):
                    u, v = v, u
                report = counterexample.verify_construction_rules(d.with_flipped_arc(u, v), lay)
                caught.append((rule, u, v, report.by_name(rule)))
            sample = counterexample.sampled_connectivity_check(
                d, target=2 * k + 1, pairs=pairs, seed=self.SAMPLE_SEED, threads=1)
            return d, lay, rules, escape, caught, sample

        def check(result):
            d, lay, rules, escape, caught, sample = result
            adj = d.adjacency
            core = [c for c in rules.checks if c.name in counterexample.CORE_RULES]
            require(rules.all_passed and len(core) == refs["core_rules"],
                    f"rules: {[c.name for c in rules.failed()]} failed")
            require(len(escape) == refs["escape_paths"], f"{len(escape)} escape paths")
            pool = set(int(v) for v in lay.core) - {lay.bypass}
            ends = set(int(v) for v in lay.targets) | {lay.outlet}
            banned = set(int(v) for v in lay.grid()) | set(int(v) for v in lay.relays)
            check_paths(adj, [p.vertices for p in escape], [p.first for p in escape],
                        [p.last for p in escape])
            for p in escape:
                require(p.first in pool and p.last in ends, f"escape path {p} misplaced")
                require(banned.isdisjoint(p.vertices) and lay.bypass not in p.vertices,
                        f"escape path {p} touches a banned vertex")
            for rule, u, v, verdict in caught:
                require(not verdict.passed, f"{rule}: fault ({u}, {v}) not detected")
                w = verdict.witness
                require(w is not None and {w.u, w.v} == {u, v},
                        f"{rule}: witness {w} does not name ({u}, {v})")
            require(adjacency_digest(d) == refs["adjacency_sha1"], "instance differs from reference")
            got = tuple(zip(sample.pairs, sample.values))
            require(got == refs["sampled"], f"sampled {got}, certified {refs['sampled']}")
            require(sample.min_observed >= refs["min_sampled_cut"] and sample.all_ok,
                    f"sampled cut {sample.min_observed} below {refs['min_sampled_cut']}")

        return Op("certify", call, check)


# -- small-exact ---------------------------------------------------------------------

class SmallExact:
    name = "small-exact"
    why = ("tiny queries (n<=60): circulant connectivity, flow vs brute-force "
           "path counts, dominator finder, oracle 2-linkage; per-call cost")
    warmup_cycles = 0
    trace_cycles = 1
    # Queries per cycle.  The tiny kinds carry about half of a cycle's time
    # and the circulants the rest; the median op is a dominator or an oracle
    # query, which cost about the same.
    FLOW, DOM, LINK = 4000, 6000, 4000
    SMOKE_DIVISOR = 100

    def generate(self, seed: int, smoke: bool) -> dict:
        top = 11 if smoke else 27
        scale = self.SMOKE_DIVISOR if smoke else 1
        rng = np.random.default_rng(child_seed(seed, 7))
        flow_cases = []
        for _ in range(self.FLOW // scale):
            m = int(rng.integers(4, 11))
            adj = rng.random((m, m)) < rng.uniform(0.15, 0.75)
            np.fill_diagonal(adj, False)
            verts = [int(v) for v in rng.permutation(m)]
            ns, nt = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            flow_cases.append((Digraph(adj), verts[:ns], verts[ns:ns + nt]))
        dom_cases = []
        for i in range(self.DOM // scale):
            m = int(rng.integers(5, 61))
            dom_cases.append(generators.random_semicomplete(
                m, float(rng.integers(10)) / 10, seed=child_seed(seed, 7, i)))
        c15 = generators.rotational_tournament(15)
        queries = []
        for _ in range(self.LINK // scale):
            p = [int(v) for v in rng.choice(15, size=4, replace=False)]
            queries.append(((p[0], p[1]), (p[2], p[3])))
        return {"circulants": [generators.rotational_tournament(m)
                               for m in range(7, top + 1, 2)],
                "flow": flow_cases, "dom": dom_cases, "c15": c15, "link": queries}

    def references(self, inputs: dict) -> dict:
        return {
            "kappa": {d.n: circulant_connectivity(d, flows.local_cut)
                      for d in inputs["circulants"]},
            "c15_5_connected": k_connected_reference(inputs["c15"], 5, flows.local_cut),
        }

    def cycle(self, inputs: dict, refs: dict, j: int) -> list[Op]:
        """Every input once: the same queries whatever the cycle number."""
        ops = [self._vc(d, refs["kappa"][d.n]) for d in inputs["circulants"]]
        ops += [self._flow(*case) for case in inputs["flow"]]
        ops += [self._dom(d) for d in inputs["dom"]]
        ops += [self._link(inputs["c15"], q) for q in inputs["link"]]
        return ops

    @staticmethod
    def _vc(d, kappa: int) -> Op:
        def check(value):
            require(value == kappa, f"kappa(C{d.n}) = {value}, expected {kappa}")

        return Op("vertex-connectivity", lambda: flows.vertex_connectivity(d), check)

    @staticmethod
    def _flow(d, sources, sinks) -> Op:
        def call():
            system, _ = flows.max_disjoint_paths(d, sources, sinks)
            return system, oracle.max_disjoint_ST_paths_bruteforce(d, sources, sinks)

        def check(result):
            system, brute = result
            require(len(system) == brute, f"flow found {len(system)} paths, oracle {brute}")
            paths = [p.vertices for p in system]
            require(all(p[0] in sources and p[-1] in sinks for p in paths),
                    "a path leaves the source or sink set")
            check_paths(d.adjacency, paths, [p[0] for p in paths], [p[-1] for p in paths],
                        allow_trivial=True)

        return Op("disjoint-paths", call, check)

    @staticmethod
    def _dom(d) -> Op:
        def call():
            u = dominators.find_nearly_out_dominating(d)
            return u, dominators.nearly_out_dominating_profile(d, u, c_max=d.n)

        def check(result):
            u, profile = result
            require(profile.vertex == u and profile.satisfies_strict_bound()
                    and profile.is_nearly_dominating(), f"profile of {u} fails")
            require(strict_domination_ok(d.adjacency, u),
                    f"vertex {u} breaks the 2c-1 bound on n={d.n}")

        return Op("dominator", call, check)

    @staticmethod
    def _link(d, pairs) -> Op:
        def check(answer):
            require(answer.verdict == "yes", f"{pairs}: verdict {answer.verdict}")
            check_paths(d.adjacency, answer.paths, [x for x, _ in pairs],
                        [y for _, y in pairs])

        return Op("oracle-linkage", lambda: oracle.exists_disjoint_linkage(d, pairs), check)


WORKLOADS = {wl.name: wl for wl in (LinkStream(), ConnectivityDecide(),
                                     HardFamily(), SmallExact())}
