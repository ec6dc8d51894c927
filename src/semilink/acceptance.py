"""The acceptance suite: eight end-to-end checks with fixed seeds.

Each criterion runs one fixed corpus at reference scale and only computes
its verdict and a human-readable detail line.  ``CRITERIA`` lists each
one's name, runtime budget and check; ``run_acceptance_suite`` times the
selected criteria in order, fails any that ran past its budget, prints one
verdict line each and returns the machine-readable results.
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


def criterion_1() -> tuple[bool, str]:
    """Exact connectivity of the circulant family meets the n/3 floor."""
    measured = {n: vertex_connectivity(rotational_tournament(n))
                for n in range(7, 28, 2)}
    ok = all(kappa >= n // 3 for n, kappa in measured.items())
    return ok, "kappa=" + ",".join(f"{n}:{v}" for n, v in measured.items())


def criterion_2() -> tuple[bool, str]:
    """Flow-based disjoint path counts equal exhaustive search."""
    rng = np.random.Generator(np.random.PCG64(2024))
    mism = 0
    for _ in range(200):
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
    return mism == 0, f"200 instances, {mism} mismatches"


def criterion_3() -> tuple[bool, str]:
    """The max-degree pick is nearly dominating with the strict bad bound."""
    failures = 0
    for i in range(500):
        n = 5 + (i * 7) % 56  # 5..60
        p = (i % 10) / 10.0
        d = random_semicomplete(n, p, seed=3000 + i)
        u = find_nearly_out_dominating(d)
        prof = nearly_out_dominating_profile(d, u, c_max=n)
        if not (prof.is_nearly_dominating() and prof.satisfies_strict_bound()):
            failures += 1
    return failures == 0, f"500 digraphs, {failures} failures"


def criterion_4() -> tuple[bool, str]:
    """The 15-vertex circulant is 5-connected and answers 2-linkage yes."""
    d = rotational_tournament(15)
    if not is_k_connected(d, 5):
        return False, "circulant on 15 vertices is not 5-connected"
    rng = np.random.Generator(np.random.PCG64(44))
    bad = 0
    for _ in range(50):
        picks = rng.choice(15, size=4, replace=False)
        pairs = [(int(picks[0]), int(picks[1])), (int(picks[2]), int(picks[3]))]
        answer = exists_disjoint_linkage(d, pairs)
        if answer.verdict != "yes":
            bad += 1
    return bad == 0, f"50 queries, {bad} non-yes"


def criterion_5() -> tuple[bool, str]:
    """End-to-end linkage on random near-regular tournaments."""
    batches = [(30, 251, 2, 5), (10, 400, 3, 7)]
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
    detail = f"{good}/{total} valid certificates"
    if notes:
        detail += "; " + "; ".join(notes[:3])
    return good == total, detail


def criterion_6() -> tuple[bool, str]:
    """Reference-scale construction: rules, degree, paths, sampled cuts."""
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
    sample = sampled_connectivity_check(d, target=2 * k + 1, pairs=200, seed=6)
    if not sample.all_ok:
        problems.append(f"sampled cut below {2 * k + 1}: {sample.failures()[:3]}")
    detail = (f"degree {degree}>={bound}, rules {core_checked}/13, "
              f"{len(paths)} escape paths, min sampled cut {sample.min_observed}")
    if problems:
        detail += "; " + "; ".join(problems)
    return not problems, detail


def criterion_7() -> tuple[bool, str]:
    """Audit of the path-adjustment program on the stress instance."""
    d, pairs = adjustment_stress_instance()
    k = len(pairs)
    starts = [x for x, _ in pairs]
    targets = [y for _, y in pairs]
    trace = LinkerTrace()
    pool = build_dominating_set(d, starts, targets, trace)
    split = classify_terminals(d, starts, targets, pool, trace)
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
    detail = (f"{adjusted.rounds} round(s), cases "
              f"{[ev['case'] for ev in rounds]}, growth "
              f"{[ev['retired_growth'] for ev in rounds]} (limit {7 * k + 6})")
    if problems:
        detail += "; " + "; ".join(problems)
    return not problems, detail


def criterion_8() -> tuple[bool, str]:
    """Single-arc faults are caught and attributed with a correct witness."""
    k, n = 42, 1764
    d, lay = build_counterexample(k, n)
    mutations = [
        ("rung_order", int(lay.rung(1)[0]), int(lay.rung(1)[1])),
        ("ladder_over_mesh", int(lay.ladder()[0]), int(lay.mesh()[0])),
        ("tail_relay_split", int(lay.tails()[0]), int(lay.relays[0])),
        ("start_target", int(lay.starts[0]), int(lay.targets[1])),
        ("outlet", int(lay.core[5]), lay.outlet),
    ]
    problems = []
    for rule, u, v in mutations:
        mutant = d.with_flipped_arc(u, v)
        report = verify_construction_rules(mutant, lay)
        check = report.by_name(rule)
        if check.passed:
            problems.append(f"{rule}: fault not detected")
            continue
        w = check.witness
        if {w.u, w.v} != {u, v}:
            problems.append(f"{rule}: witness {w} does not name the fault ({u},{v})")
    detail = f"{len(mutations)} mutations, each caught by its owning rule"
    if problems:
        detail = "; ".join(problems)
    return not problems, detail


# (name, runtime budget in seconds, check); criterion i is CRITERIA[i - 1]
CRITERIA: tuple[tuple[str, int, Callable[[], tuple[bool, str]]], ...] = (
    ("circulant-connectivity", 60, criterion_1),
    ("flow-oracle-equivalence", 120, criterion_2),
    ("dominating-vertex-finder", 300, criterion_3),
    ("two-linkage-spot-check", 300, criterion_4),
    ("linkage-end-to-end", 600, criterion_5),
    ("construction-certification", 1800, criterion_6),
    ("adjustment-program-audit", 60, criterion_7),
    ("fault-injection", 300, criterion_8),
)


def run_acceptance_suite(numbers: Iterable[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria, printing one verdict line per criterion.

    A criterion that runs past its budget fails, whatever its check said.
    """
    known = set(range(1, len(CRITERIA) + 1))
    wanted = set(numbers) if numbers is not None else known
    if wanted - known:
        raise ValueError(f"unknown criterion numbers {sorted(wanted - known)}; "
                         f"expected 1..{len(CRITERIA)}")
    results = []
    for number, (name, budget, check) in enumerate(CRITERIA, start=1):
        if number not in wanted:
            continue
        t0 = time.monotonic()
        passed, details = check()
        seconds = time.monotonic() - t0
        if seconds > budget:
            passed = False
            details += f"; exceeded {budget}s budget"
        res = CriterionResult(number, name, passed, details, seconds)
        results.append(res)
        print(res.line(), flush=True)
    return results
