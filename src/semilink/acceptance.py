"""The acceptance suite: eight end-to-end checks with fixed seeds.

Each criterion is a standalone callable returning a result with a verdict,
a human-readable detail line and its runtime; ``run_acceptance_suite``
executes them in order and collects a machine-readable report.  The
``full`` profile runs everything at reference scale; ``quick`` shrinks the
sampled corpora for a fast smoke run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .certificates import CertificateError, verify_linkage_certificate
from .counterexample import (CORE_RULES, build_counterexample,
                             sampled_connectivity_check,
                             verify_construction_rules, verify_property_two)
from .digraph import Digraph
from .dominators import (find_nearly_out_dominating,
                         nearly_out_dominating_profile)
from .flows import is_k_connected, max_disjoint_paths, vertex_connectivity
from .generators import (near_regular_tournament, random_semicomplete,
                         rotational_tournament)
from .instances import adjustment_stress_instance
from .linker import (LinkageCertificate, LinkageInstance, LinkerTrace,
                     adjust_paths, build_dominating_set, classify_terminals,
                     initial_path_system, link)
from .oracle import exists_disjoint_linkage, max_disjoint_ST_paths_bruteforce

PROFILES = {
    "full": dict(c1_max_n=27, c2_count=200, c3_count=500, c4_queries=50,
                 c5_k2=30, c5_k3=10, c6_pairs=200, c8_mutations=5),
    "quick": dict(c1_max_n=15, c2_count=40, c3_count=80, c4_queries=10,
                  c5_k2=3, c5_k3=1, c6_pairs=12, c8_mutations=3),
}

BUDGETS_SECONDS = {1: 60, 2: 120, 3: 300, 4: 300, 5: 600, 6: 1800, 7: 60, 8: 300}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{verdict}] criterion {self.number} ({self.name}): "
                f"{self.details} [{self.seconds:.1f}s]")


def _result(number: int, name: str, started: float, passed: bool,
            details: str) -> CriterionResult:
    elapsed = time.monotonic() - started
    if elapsed > BUDGETS_SECONDS[number]:
        passed = False
        details += f"; exceeded {BUDGETS_SECONDS[number]}s budget"
    return CriterionResult(number, name, passed, details, elapsed)


def criterion_1(profile: dict) -> CriterionResult:
    """Exact connectivity of the circulant family meets the n/3 floor."""
    t0 = time.monotonic()
    measured = {}
    ok = True
    for n in range(7, profile["c1_max_n"] + 1, 2):
        kappa = vertex_connectivity(rotational_tournament(n))
        measured[n] = kappa
        if kappa < n // 3:
            ok = False
    details = "kappa=" + ",".join(f"{n}:{v}" for n, v in measured.items())
    return _result(1, "circulant-connectivity", t0, ok, details)


def criterion_2(profile: dict) -> CriterionResult:
    """Flow-based disjoint path counts equal exhaustive search."""
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(2024))
    mism = 0
    for _ in range(profile["c2_count"]):
        n = int(rng.integers(4, 11))
        density = rng.uniform(0.15, 0.75)
        adj = rng.random((n, n)) < density
        np.fill_diagonal(adj, False)
        d = Digraph(adj)
        verts = rng.permutation(n)
        ns, nt = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sources = [int(v) for v in verts[:ns]]
        sinks = [int(v) for v in verts[ns:ns + nt]]
        system, _ = max_disjoint_paths(d, sources, sinks)
        if len(system) != max_disjoint_ST_paths_bruteforce(d, sources, sinks):
            mism += 1
    ok = mism == 0
    return _result(2, "flow-oracle-equivalence", t0, ok,
                   f"{profile['c2_count']} instances, {mism} mismatches")


def criterion_3(profile: dict) -> CriterionResult:
    """The max-degree pick is nearly dominating with the strict bad bound."""
    t0 = time.monotonic()
    failures = 0
    count = profile["c3_count"]
    for i in range(count):
        n = 5 + (i * 7) % 56  # 5..60
        p = (i % 10) / 10.0
        d = random_semicomplete(n, p, seed=3000 + i)
        u = find_nearly_out_dominating(d)
        prof = nearly_out_dominating_profile(d, u, c_max=n)
        if not (prof.is_nearly_dominating() and prof.satisfies_strict_bound()):
            failures += 1
    ok = failures == 0
    return _result(3, "dominating-vertex-finder", t0, ok,
                   f"{count} digraphs, {failures} failures")


def criterion_4(profile: dict) -> CriterionResult:
    """The 15-vertex circulant is 5-connected and answers 2-linkage yes."""
    t0 = time.monotonic()
    d = rotational_tournament(15)
    if not is_k_connected(d, 5):
        return _result(4, "two-linkage-spot-check", t0, False,
                       "circulant on 15 vertices is not 5-connected")
    rng = np.random.Generator(np.random.PCG64(44))
    bad = 0
    for _ in range(profile["c4_queries"]):
        picks = rng.choice(15, size=4, replace=False)
        pairs = [(int(picks[0]), int(picks[1])), (int(picks[2]), int(picks[3]))]
        answer = exists_disjoint_linkage(d, pairs)
        if answer.verdict != "yes":
            bad += 1
    ok = bad == 0
    return _result(4, "two-linkage-spot-check", t0, ok,
                   f"{profile['c4_queries']} queries, {bad} non-yes")


def criterion_5(profile: dict) -> CriterionResult:
    """End-to-end linkage on random near-regular tournaments."""
    t0 = time.monotonic()
    batches = [(profile["c5_k2"], 251, 2, 5), (profile["c5_k3"], 400, 3, 7)]
    good = 0
    total = 0
    notes = []
    for count, n, k, conn in batches:
        for i in range(count):
            total += 1
            d = near_regular_tournament(n, seed=500 + 13 * i + n)
            if not is_k_connected(d, conn):
                notes.append(f"n={n} seed {500 + 13 * i + n}: not {conn}-connected")
                continue
            rng = np.random.Generator(np.random.PCG64(9000 + i + n))
            picks = rng.choice(n, size=2 * k, replace=False)
            pairs = tuple((int(picks[2 * j]), int(picks[2 * j + 1]))
                          for j in range(k))
            outcome = link(LinkageInstance(d, pairs))
            if not isinstance(outcome, LinkageCertificate):
                notes.append(f"n={n} instance {i}: {outcome.step}: {outcome.reason}")
                continue
            try:
                verify_linkage_certificate(d, pairs, outcome.paths)
            except CertificateError as exc:
                notes.append(f"n={n} instance {i}: invalid certificate: {exc}")
                continue
            good += 1
    ok = good == total
    detail = f"{good}/{total} valid certificates"
    if notes:
        detail += "; " + "; ".join(notes[:3])
    return _result(5, "linkage-end-to-end", t0, ok, detail)


def criterion_6(profile: dict) -> CriterionResult:
    """Reference-scale construction: rules, degree, paths, sampled cuts."""
    t0 = time.monotonic()
    k, n = 42, 1764
    d, layout = build_counterexample(k, n)
    problems = []
    bound = -(-(k * k + 11 * k) // 26)
    degree = d.min_out_degree()
    if degree < bound:
        problems.append(f"min out-degree {degree} < {bound}")
    report = verify_construction_rules(d, layout)
    if not report.all_passed:
        problems.append("rules failed: " +
                        ",".join(c.name for c in report.failed()))
    core_checked = sum(1 for c in report.checks if c.name in CORE_RULES)
    if core_checked != 13:
        problems.append(f"expected 13 core rules, saw {core_checked}")
    paths = verify_property_two(d, layout)
    if len(paths) != k + 1:
        problems.append(f"expected {k + 1} escape paths, got {len(paths)}")
    sample = sampled_connectivity_check(d, target=2 * k + 1,
                                        pairs=profile["c6_pairs"], seed=6)
    if not sample.all_ok:
        problems.append(f"sampled cut below {2 * k + 1}: {sample.failures()[:3]}")
    ok = not problems
    detail = (f"degree {degree}>={bound}, rules {core_checked}/13, "
              f"{len(paths)} escape paths, min sampled cut {sample.min_observed}")
    if problems:
        detail += "; " + "; ".join(problems)
    return _result(6, "construction-certification", t0, ok, detail)


def criterion_7(_profile: dict) -> CriterionResult:
    """Audit of the path-adjustment program on the stress instance."""
    t0 = time.monotonic()
    d, pairs = adjustment_stress_instance()
    k = len(pairs)
    starts = [x for x, _ in pairs]
    targets = [y for _, y in pairs]
    trace = LinkerTrace()
    pool = build_dominating_set(d, starts, targets, k, trace)
    split = classify_terminals(d, starts, targets, pool, k, trace)
    deliveries, special = initial_path_system(d, starts, targets, pool, split,
                                              trace)
    adjusted = adjust_paths(d, starts, targets, pool, split, deliveries,
                            special, trace)
    rounds = trace.rounds()
    problems = []
    if not rounds:
        problems.append("no reroute round fired")
    if adjusted.rounds > len(split.rich):
        problems.append("more rounds than rich starts")
    for ev in rounds:
        if ev["retired_growth"] > 7 * k + 6:
            problems.append(f"round {ev['round']}: retired grew {ev['retired_growth']}")
        if ev["candidates"] < 1:
            problems.append(f"round {ev['round']}: empty candidate set")
    if set(adjusted.matched) != set(split.rich):
        problems.append("matching does not cover the rich starts")
    occupied = {v for p in adjusted.deliveries.values() for v in p.vertices}
    if adjusted.special is not None:
        occupied |= set(adjusted.special.vertices)
    if set(adjusted.stand_ins) & occupied:
        problems.append("stand-ins intersect the path system")
    for x, s in adjusted.matched.items():
        if not d.has_arc(x, s):
            problems.append(f"matching arc ({x}, {s}) missing")
    if adjusted.special is None or adjusted.special.last not in set(split.reach_union):
        problems.append("special terminal missing or outside the reach union")
    ok = not problems
    detail = (f"{adjusted.rounds} round(s), cases "
              f"{[ev['case'] for ev in rounds]}, growth "
              f"{[ev['retired_growth'] for ev in rounds]} (limit {7 * k + 6})")
    if problems:
        detail += "; " + "; ".join(problems)
    return _result(7, "adjustment-program-audit", t0, ok, detail)


def criterion_8(profile: dict) -> CriterionResult:
    """Single-arc faults are caught and attributed with a correct witness."""
    t0 = time.monotonic()
    k, n = 42, 1764
    d, lay = build_counterexample(k, n)
    mutations = [
        ("rung_order", int(lay.rung(1)[0]), int(lay.rung(1)[1])),
        ("ladder_over_mesh", int(lay.ladder()[0]), int(lay.mesh()[0])),
        ("tail_relay_split", int(lay.tails()[0]), int(lay.relays[0])),
        ("start_target", int(lay.starts[0]), int(lay.targets[1])),
        ("outlet", int(lay.core[5]), lay.outlet),
    ][:profile["c8_mutations"]]
    problems = []
    for rule, u, v in mutations:
        mutant = d.with_flipped_arc(u, v)
        report = verify_construction_rules(mutant, lay)
        check = report.by_name(rule)
        if check.passed:
            problems.append(f"{rule}: fault not detected")
            continue
        w = check.witness
        if w is None or {w.u, w.v} != {u, v}:
            problems.append(f"{rule}: witness {w} does not name the fault ({u},{v})")
    ok = not problems
    detail = f"{len(mutations)} mutations, each caught by its owning rule"
    if problems:
        detail = "; ".join(problems)
    return _result(8, "fault-injection", t0, ok, detail)


CRITERIA: tuple[Callable[[dict], CriterionResult], ...] = (
    criterion_1, criterion_2, criterion_3, criterion_4,
    criterion_5, criterion_6, criterion_7, criterion_8,
)


def run_acceptance_suite(profile: str = "full",
                         numbers: Iterable[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria, printing one verdict line per criterion."""
    settings = PROFILES[profile]
    known = set(range(1, len(CRITERIA) + 1))
    wanted = set(numbers) if numbers is not None else known
    if wanted - known:
        raise ValueError(f"unknown criterion numbers {sorted(wanted - known)}; "
                         f"expected 1..{len(CRITERIA)}")
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if idx not in wanted:
            continue
        res = fn(settings)
        results.append(res)
        print(res.line(), flush=True)
    return results
