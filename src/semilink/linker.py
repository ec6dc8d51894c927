"""Constructive pairwise linkage in semicomplete digraphs.

Given k terminal pairs (x_i, y_i) in a semicomplete digraph with enough
connectivity and out-degree, ``link`` produces k vertex-disjoint paths, one
per pair, assembled from three layers:

* *deliveries*: disjoint paths from a pool U of nearly in-dominating
  vertices to the targets, found by minimum-weight disjoint-path flow and
  then reshaped by an iterative adjustment program that frees one reachable
  vertex (a *stand-in*) per rich start while keeping the paths disjoint and
  minimal;
* *launches*: per start, a path of length at most two into the unused part
  of the pool (rich starts hop through their matched stand-in, lean starts
  stay put);
* *bridges*: short connectors (length at most three) from each launch
  terminal to the initial vertex of the matching delivery, chosen greedily
  shortest-first while avoiding everything already used.

Every step asserts the invariants it relies on; a violated assertion
aborts the run with a structured failure report carrying the full trace.
The construction is deterministic: all choice points break ties by lowest
vertex id and no randomness is used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .certificates import CertificateError, verify_linkage_certificate
from .digraph import Digraph, Path, PathSystem, _vertex_id, is_semicomplete, \
    reduce_to_minimal_path
from .dominators import _picks, _pool_mask, find_nearly_out_dominating, \
    goodness_scores
from .flows import FlowInfeasible, _cut_value, _sample_pairs, is_k_connected, \
    min_weight_disjoint_paths


@dataclass(frozen=True)
class LinkageInstance:
    d: Digraph
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.d.n
        pairs = tuple((_vertex_id(x, "terminal", n), _vertex_id(y, "terminal", n))
                      for x, y in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("at least one terminal pair is required")
        terms = [t for p in pairs for t in p]
        if len(set(terms)) != len(terms):
            raise ValueError("terminal vertices must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def starts(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.pairs)

    @property
    def targets(self) -> tuple[int, ...]:
        return tuple(y for _, y in self.pairs)


class LinkerTrace:
    """Ordered event log of one linker run, JSON-serializable."""

    def __init__(self):
        self.events: list[dict] = []

    def add(self, phase: str, **fields) -> None:
        event = {"phase": phase}
        event.update(fields)
        self.events.append(event)

    def rounds(self) -> list[dict]:
        return [e for e in self.events if e["phase"] == "adjust-round"]

    def to_json(self) -> str:
        return json.dumps(self.events, indent=2)


@dataclass(frozen=True)
class LinkageCertificate:
    # ``paths`` stays a field next to the segments it is joined from, so a
    # caller can hand the verifier a certificate with altered paths.
    paths: tuple[tuple[int, ...], ...]
    # per pair: its start and target, and the launch, bridge and delivery
    # that its path joins, each segment starting where the one before ends
    provenance: tuple[dict, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e["start"], e["target"]) for e in self.provenance)

    def to_json(self) -> str:
        return json.dumps({
            "pairs": [list(p) for p in self.pairs],
            "paths": [list(p) for p in self.paths],
            "provenance": list(self.provenance),
        }, indent=2)


@dataclass(frozen=True)
class FailureReport:
    step: str
    reason: str
    details: dict
    hypothesis_note: str
    trace: LinkerTrace

    def to_json(self) -> str:
        return json.dumps({
            "step": self.step,
            "reason": self.reason,
            "details": self.details,
            "hypothesis_note": self.hypothesis_note,
            "trace": self.trace.events,
        }, indent=2, default=str)


class LinkerCheckError(Exception):
    """An asserted invariant failed; carries the step and diagnostics."""

    def __init__(self, step: str, reason: str, **details):
        super().__init__(f"[{step}] {reason}")
        self.step = step
        self.reason = reason
        self.details = details


def _check(cond: bool, step: str, reason: str, **details) -> None:
    if not cond:
        raise LinkerCheckError(step, reason, **details)


@dataclass
class TerminalSplit:
    """Reach sets and the rich/lean partition of the starts."""

    reach: dict[int, tuple[int, ...]]
    rich: tuple[int, ...]
    spare_target: int | None  # nearly out-dominating vertex inside the union

    @property
    def reach_union(self) -> tuple[int, ...]:
        """The union of the rich starts' reach sets, in id order."""
        return tuple(sorted(set().union(*(self.reach[x] for x in self.rich))))


def build_dominating_set(d: Digraph, starts: Sequence[int], targets: Sequence[int],
                         trace: LinkerTrace) -> list[int]:
    """3k vertices, each nearly in-dominating in the remaining subgraph.

    Vertex i is found in the digraph with the terminals and the previous
    picks removed; the defining property is asserted for every pick.  That
    also certifies the whole pool in the digraph minus the terminals: there
    every pick has the same or more middles and fewer candidates.  The
    pool's rows and columns are packed and checked for semicompleteness
    once, since every sub-pool of a semicomplete pool is semicomplete; the
    picks follow from the degrees, and one census scores them all.
    """
    free = np.flatnonzero(_off_terminals(d.n, starts, targets, ()))
    if free.size < 3 * len(starts):
        raise ValueError("digraph too small to host the dominating pool")
    pool = _picks(d, "in", free, 3 * len(starts))
    trace.add("dominating-pool", pool=list(pool))
    return pool


def classify_terminals(d: Digraph, starts: Sequence[int], targets: Sequence[int],
                       pool: Sequence[int], trace: LinkerTrace) -> TerminalSplit:
    """Reach sets, rich/lean split, and the spare target inside the union.

    A start's reach set collects its out-neighbours (off terminals and
    pool) that beat at least 2k+1 pool vertices; a start is rich when its
    reach set has at least 7k^2 + 6k + 1 vertices.
    """
    k = len(starts)
    pool_arr = np.asarray(sorted(pool), dtype=np.int64)
    dominator = d.adjacency[:, pool_arr].sum(axis=1) >= 2 * k + 1
    off = _off_terminals(d.n, starts, targets, pool)
    reach: dict[int, tuple[int, ...]] = {}
    for x in starts:
        ids = np.flatnonzero(d.adjacency[x] & dominator & off)
        reach[x] = tuple(int(v) for v in ids)
    threshold = 7 * k * k + 6 * k + 1
    rich = tuple(x for x in starts if len(reach[x]) >= threshold)
    lean = tuple(x for x in starts if x not in rich)
    split = TerminalSplit(reach, rich, spare_target=None)
    union = split.reach_union
    if union:
        split.spare_target = find_nearly_out_dominating(d, within=union)
    trace.add("classify", reach_sizes={int(x): len(reach[x]) for x in starts},
              rich=list(rich), lean=list(lean), reach_union=len(union),
              spare_target=split.spare_target)
    return split


def _off_terminals(n: int, starts, targets, pool) -> np.ndarray:
    """Mask of the vertices that are neither terminals nor pool members."""
    off = np.ones(n, dtype=bool)
    off[list(starts)] = False
    off[list(targets)] = False
    off[list(pool)] = False
    return off


def _anchored_off(d: Digraph, starts, targets, pool,
                  deliveries: Mapping[int, Path]) -> np.ndarray:
    """Off-terminal vertices beaten by a pool vertex that starts no delivery."""
    inits = {p.first for p in deliveries.values()}
    anchors = np.asarray(sorted(set(pool) - inits), dtype=np.int64)
    anchored = d.adjacency[anchors].any(axis=0) if anchors.size else np.zeros(d.n, bool)
    return _off_terminals(d.n, starts, targets, pool) & anchored


def initial_path_system(d: Digraph, starts: Sequence[int], targets: Sequence[int],
                        pool: Sequence[int], split: TerminalSplit, trace: LinkerTrace
                        ) -> tuple[dict[int, Path], Path | None]:
    """Minimum-weight disjoint paths from the pool to the targets.

    With rich starts present a spare target joins the sinks, giving k+1
    paths; otherwise exactly k.  Raises LinkerCheckError carrying the cut
    when the digraph is not connected enough.
    """
    sinks = list(targets)
    if split.rich:
        _check(split.spare_target is not None, "initial-paths",
               "rich starts need a spare target")
        sinks.append(split.spare_target)
    try:
        system = min_weight_disjoint_paths(d, pool, sinks, count=len(sinks),
                                           forbidden=starts)
    except FlowInfeasible as exc:
        raise LinkerCheckError(
            "initial-paths", f"only {exc.achieved} disjoint pool-to-target paths exist",
            cut=sorted(exc.cut.separator)) from exc
    deliveries: dict[int, Path] = {}
    special: Path | None = None
    for p in system:
        if split.rich and p.last == split.spare_target:
            special = p
        else:
            deliveries[p.last] = p
    _check(set(deliveries) == set(targets), "initial-paths",
           "path terminals must cover every target",
           got=sorted(deliveries), want=sorted(targets))
    _check(special is not None or not split.rich, "initial-paths",
           "missing the spare-target path")
    trace.add("initial-paths",
              inits=sorted(p.first for p in system),
              total_vertices=system.total_vertices())
    return deliveries, special


@dataclass
class AdjustResult:
    deliveries: dict[int, Path]
    special: Path | None
    matched: dict[int, int]       # rich start -> stand-in (a perfect matching)
    rounds: int

    @property
    def stand_ins(self) -> tuple[int, ...]:
        return tuple(sorted(self.matched.values()))


# Key of the special path in the path system Q*: the deliveries are keyed by
# their targets, in the order initial_path_system gave them, and the special
# path comes last.
_SPECIAL = "special"


def _validate_path_state(d: Digraph, starts, targets, pool, split,
                         qstar: Mapping, matched: Mapping[int, int], step: str) -> None:
    paths = list(qstar.values())
    try:
        PathSystem(paths)
    except ValueError as exc:
        raise LinkerCheckError(step, f"paths not disjoint: {exc}")
    pool_set = set(pool)
    occupied = {v for p in paths for v in p.vertices}
    for p in paths:
        _check(p.first in pool_set, step, "path must start in the pool",
               path=list(p.vertices))
        _check(not (set(p.vertices[1:]) & pool_set), step,
               "pool vertices may appear only as initial vertices",
               path=list(p.vertices))
        _check(not (set(p.vertices) & set(starts)), step,
               "paths must avoid the starts", path=list(p.vertices))
        shortcut_free = reduce_to_minimal_path(d, p)
        _check(shortcut_free.vertices == p.vertices, step,
               "path is not minimal", path=list(p.vertices))
    for y in targets:
        _check(y in qstar and qstar[y].last == y, step,
               "every target needs its delivery", target=y)
    _check(qstar[_SPECIAL].last in set(split.reach_union), step,
           "special terminal must lie in the reach union")
    _check(len(set(matched.values())) == len(matched), step,
           "stand-in matching must be injective")
    _check(occupied.isdisjoint(matched.values()), step,
           "stand-ins must stay off the path system")
    for x, s in matched.items():
        _check(d.has_arc(x, s), step, "matching arc missing", arc=(x, s))
        _check(s in split.reach[x], step, "stand-in outside the reach set",
               start=x, stand_in=s)


def adjust_paths(d: Digraph, starts, targets, pool, split: TerminalSplit,
                 deliveries: dict[int, Path], special: Path | None,
                 trace: LinkerTrace) -> AdjustResult:
    """The iterative path-adjustment program.

    Greedily matches rich starts to fresh reachable vertices; whenever no
    fresh vertex remains for some unmatched rich start, one reroute round
    releases a reachable vertex from the paths.  Per round the retired set
    grows by at most 7k+6, the candidate set stays non-empty, and the whole
    program runs at most one round per rich start; all of this is asserted.
    """
    k = len(starts)
    matched: dict[int, int] = {}
    retired: set[int] = set()
    rounds = 0
    if not split.rich:
        trace.add("adjust-skip", reason="no rich starts")
        return AdjustResult(dict(deliveries), special, matched, 0)
    _check(special is not None, "adjust", "rich starts need the spare-target path")
    qstar = {**deliveries, _SPECIAL: special}
    reach_union = set(split.reach_union)
    union_mask = _pool_mask(d, reach_union)

    while True:
        # Greedy matching into vertices off the path system.  One pass
        # suffices: a start left unmatched saw no fresh vertex, and the
        # paths do not change before the next reroute.
        occupied = {v for p in qstar.values() for v in p.vertices}
        for x in split.rich:
            if x in matched:
                continue
            fresh = sorted(set(split.reach[x]).difference(occupied, matched.values()))
            if fresh:
                matched[x] = fresh[0]
                trace.add("match", start=int(x), stand_in=int(fresh[0]))
        if len(matched) == len(split.rich):
            break

        rounds += 1
        _check(rounds <= len(split.rich), "adjust",
               "more reroute rounds than rich starts", rounds=rounds)
        spare = qstar[_SPECIAL].last
        hungry = [x for x in split.rich if x not in matched]
        scope = set().union(*(split.reach[x] for x in hungry)).difference(
            retired, matched.values())
        # The current spare can sit inside the reach union but is never a
        # candidate for the next one.
        scope.discard(spare)
        # Goodness of the scope for the current spare terminal, within the
        # reach union.  The spare was chosen nearly out-dominating there, so
        # at most 4k+4 scope vertices may fail; assert it.
        scores = goodness_scores(d, spare, "out", union_mask)
        good = {v for v in scope if scores[v] >= 2 * k + 2}
        bad = scope - good
        _check(len(bad) <= 4 * k + 4, "adjust",
               "too many scope vertices badly linked to the spare terminal",
               bad=len(bad), allowed=4 * k + 4)
        before = len(retired)
        retired.add(spare)
        retired |= bad
        retired.update(matched.values())
        for p in qstar.values():
            # guards: the last two well-linked vertices of every path
            retired.update([v for v in p.vertices if v in good][-2:])
        # 4k+4 bad + at most k-1 stand-ins mid-run + 2(k+1) guards + the
        # spare itself: at most 7k+6 new retirees.
        growth = len(retired) - before
        _check(growth <= 7 * k + 6, "adjust", "retired set grew too fast",
               growth=growth, allowed=7 * k + 6)
        cand = scope - retired
        _check(bool(cand), "adjust", "no candidate left for the next spare",
               scope=len(scope))
        next_spare = find_nearly_out_dominating(d, within=sorted(cand))

        host_key = next((key for key, p in qstar.items() if next_spare in p.vertices),
                        None)
        _check(host_key is not None, "adjust",
               "candidate spare must sit on the path system", vertex=next_spare)
        host = qstar[host_key]
        after = [v for v in host.vertices[host.index_of(next_spare) + 1:] if v in good]
        _check(len(after) >= 2, "adjust",
               "need two well-linked vertices after the next spare",
               found=len(after))
        released_holder, reconnect = after[0], after[1]
        donors = [x for x in hungry if released_holder in split.reach[x]]
        _check(bool(donors), "adjust", "released vertex serves no hungry start")
        donor = min(donors)

        try:
            case, updates = _reroute(d, qstar, host_key, next_spare, reconnect,
                                     set(matched.values()), reach_union, k)
        except ValueError as exc:
            raise LinkerCheckError("adjust", f"reroute splice failed: {exc}",
                                   case_host=str(host_key)) from exc
        prev_inits = sorted(p.first for p in qstar.values())
        for key, path in updates.items():
            qstar[key] = reduce_to_minimal_path(d, path)
        matched[donor] = released_holder
        trace.add("adjust-round", round=rounds, case=case,
                  spare=int(spare), next_spare=int(next_spare), host=host_key,
                  released=int(released_holder), donor=int(donor),
                  retired_growth=growth, retired_total=len(retired),
                  candidates=len(cand), scope=len(scope),
                  inits_before=prev_inits,
                  inits_after=sorted(p.first for p in qstar.values()))
        _validate_path_state(d, starts, targets, pool, split, qstar, matched, "adjust")

    _validate_path_state(d, starts, targets, pool, split, qstar, matched, "adjust-final")
    trace.add("adjust-done", rounds=rounds,
              stand_ins=sorted(matched.values()), retired=len(retired))
    deliveries = {y: p for y, p in qstar.items() if y != _SPECIAL}
    return AdjustResult(deliveries, qstar[_SPECIAL], matched, rounds)


def _reroute(d: Digraph, qstar: Mapping, host_key, next_spare: int,
             reconnect: int, stand_ins: set[int], reach_union: set[int], k: int):
    """Execute one reroute on the path system Q*, returning (case, updates).

    The segment of the host strictly after ``next_spare`` up to the
    reconnect point is released from the system; the host's prefix becomes
    the new special path, under ``_SPECIAL`` in the updates.  The current
    spare is the special path's last vertex.
    """
    spare = qstar[_SPECIAL].last
    host = qstar[host_key]
    prefix = host.subpath(d, host.first, next_spare)
    if host_key == _SPECIAL:
        # The candidate sits on the special path itself: trim it and release
        # everything behind.
        return "truncate", {_SPECIAL: prefix}

    suffix = host.subpath(d, reconnect, host.last)
    if d.has_arc(spare, reconnect):
        new_host = Path(d, qstar[_SPECIAL].vertices + suffix.vertices)
        return "arc", {_SPECIAL: prefix, host_key: new_host}

    two_arc = {int(w) for w in
               np.flatnonzero(d.adjacency[spare] & d.adjacency[:, reconnect])}
    middles = sorted(reach_union & two_arc)
    _check(len(middles) >= 2 * k + 2, "adjust",
           "well-linked vertex lost its two-arc connections",
           middles=len(middles))
    usable = [w for w in middles if w not in stand_ins]
    occupied = {v for p in qstar.values() for v in p.vertices}
    fresh = [w for w in usable if w not in occupied]
    if fresh:
        w = fresh[0]
        new_host = Path(d, qstar[_SPECIAL].vertices + (w,) + suffix.vertices)
        return "fresh-middle", {_SPECIAL: prefix, host_key: new_host}

    # Every usable middle sits on the path system; find a path other than
    # the host carrying two of them, r1 before r2.  The host's suffix hangs
    # off the carrier's head up to r1; a delivery's tail from r2 hangs off
    # the old special path.
    for key in sorted(qstar.keys() - {_SPECIAL}) + [_SPECIAL]:
        carrier = qstar[key]
        hits = [v for v in carrier.vertices if v in usable]
        if key == host_key or len(hits) < 2:
            continue
        r1, r2 = hits[0], hits[1]
        updates = {_SPECIAL: prefix}
        if key != _SPECIAL:
            updates[key] = Path(d, qstar[_SPECIAL].vertices
                                + carrier.subpath(d, r2, carrier.last).vertices)
        updates[host_key] = Path(d, carrier.subpath(d, carrier.first, r1).vertices
                                 + suffix.vertices)
        return ("carrier-special" if key == _SPECIAL else "carrier"), updates

    # All multi-middle paths are the host itself; use a middle behind the
    # reconnect point and skip the reconnect vertex entirely.
    tail = host.vertices[host.index_of(reconnect) + 1:]
    behind = [w for w in tail if w in usable]
    _check(bool(behind), "adjust", "no reroute strategy applies",
           reconnect=reconnect)
    w = behind[0]
    new_host = Path(d, qstar[_SPECIAL].vertices + host.subpath(d, w, host.last).vertices)
    return "host-middle", {_SPECIAL: prefix, host_key: new_host}


def _first_swap(d: Digraph, paths: Mapping[int, Path], pool,
                banned: set[int]) -> tuple[int, tuple[int, ...]] | None:
    """The first swap of ``finalize_deliveries``, as (target, new vertices).

    Targets go in id order and, per target, the one-hop rule before the
    two-hop one; each takes the earliest position, then the lowest ids.
    """
    occupied = {v for p in paths.values() for v in p.vertices}
    free_pool = sorted(set(pool) - occupied)
    free = np.ones(d.n, dtype=bool)
    free[list(occupied | banned)] = False
    for y in sorted(paths):
        verts = paths[y].vertices
        for pos in range(2, len(verts)):
            for u in free_pool:
                if d.has_arc(u, verts[pos]):
                    return y, (u,) + verts[pos:]
        for pos in range(3, len(verts)):
            into_w = d.adjacency[:, verts[pos]] & free
            for u in free_pool:
                mids = np.flatnonzero(d.adjacency[u] & into_w)[:1]
                if mids.size:
                    return y, (u, int(mids[0])) + verts[pos:]
    return None


def finalize_deliveries(d: Digraph, starts, pool, deliveries: dict[int, Path],
                        stand_ins: Iterable[int],
                        trace: LinkerTrace) -> dict[int, Path]:
    """Drop the special path and shrink the deliveries to a local fixpoint.

    Two swap rules apply until exhaustion, each strictly reducing the total
    vertex count: restart a path from an unused pool vertex that beats its
    third-or-later vertex, or from an unused pool vertex via one fresh
    middle into its fourth-or-later vertex.

    Without a rich start no rule ever fires.  There is then no special path
    and no reroute round, so the deliveries are the minimum-vertex system
    of k disjoint pool-to-target paths avoiding the starts.  A swap keeps
    the system disjoint, pool-started and off the starts, so it would give
    a feasible system with fewer vertices.
    """
    paths = dict(deliveries)
    banned = set(starts) | set(stand_ins) | set(pool)
    swaps = 0
    while (swap := _first_swap(d, paths, pool, banned)) is not None:
        y, vertices = swap
        paths[y] = reduce_to_minimal_path(d, Path(d, vertices))
        swaps += 1
    trace.add("finalize", swaps=swaps,
              total_vertices=sum(len(p.vertices) for p in paths.values()))
    return paths


def build_launches(d: Digraph, starts, targets, pool, matched: Mapping[int, int],
                   deliveries: Mapping[int, Path], trace: LinkerTrace) -> dict[int, Path]:
    """Per start, a path of length <= 2 ending at a launch terminal.

    Rich starts go start -> stand-in -> pool vertex (the second hop is a
    maximum bipartite matching into the pool vertices unused by the
    deliveries); lean starts launch in place.  Asserts disjointness from
    the deliveries and that every launch terminal has at least 25k
    out-neighbours (off terminals and pool) that some unused pool vertex
    beats.
    """
    occupied = {v for p in deliveries.values() for v in p.vertices}
    free_pool = sorted(set(pool) - occupied)
    stand_list = sorted(matched.values())
    pairing = _bipartite_matching(
        d, stand_list, free_pool)
    _check(len(pairing) == len(stand_list), "launches",
           "stand-ins cannot all be matched into the free pool",
           matched=len(pairing), needed=len(stand_list))
    launches: dict[int, Path] = {}
    for x in starts:
        if x in matched:
            s = matched[x]
            launches[x] = Path(d, (x, s, pairing[s]))
        else:
            launches[x] = Path(d, (x,))
    system = PathSystem(list(launches.values()))  # validates disjointness
    overlap = system.vertex_set() & occupied
    _check(not overlap, "launches", "launches collide with deliveries",
           overlap=sorted(overlap))

    anchored = _anchored_off(d, starts, targets, pool, deliveries)
    for x, p in launches.items():
        terminal = p.last
        count = int(np.count_nonzero(d.adjacency[terminal] & anchored))
        _check(count >= 25 * len(starts), "launches",
               "launch terminal has too few anchored out-neighbours",
               start=int(x), terminal=int(terminal), count=count,
               required=25 * len(starts))
    trace.add("launches", terminals={int(x): int(p.last)
                                     for x, p in launches.items()})
    return launches


def _bipartite_matching(d: Digraph, left: Sequence[int], right: Sequence[int]
                        ) -> dict[int, int]:
    """Maximum matching left->right along arcs of d (lowest-id augmenting)."""
    right = list(right)
    r_index = {v: i for i, v in enumerate(right)}
    match_of_right: list[int | None] = [None] * len(right)
    adj = {u: [v for v in right if d.has_arc(u, v)] for u in left}

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            i = r_index[v]
            if i in seen:
                continue
            seen.add(i)
            if match_of_right[i] is None or augment(match_of_right[i], seen):
                match_of_right[i] = u
                return True
        return False

    for u in left:
        augment(u, set())
    result: dict[int, int] = {}
    for i, u in enumerate(match_of_right):
        if u is not None:
            result[u] = right[i]
    return result


def build_bridges(d: Digraph, pairs, launches: Mapping[int, Path],
                  deliveries: Mapping[int, Path], pool,
                  trace: LinkerTrace) -> dict[int, Path]:
    """Connect each launch terminal to its delivery's initial vertex.

    Bridges have length at most 3, are built one pair at a time in pair
    order, and their interiors avoid the launches, the deliveries and all
    earlier bridges.  Chosen shortest-first with lowest-id tie-breaking.
    """
    blocked = {v for p in deliveries.values() for v in p.vertices}
    blocked |= {v for p in launches.values() for v in p.vertices}
    starts, targets = zip(*pairs)
    anchored = _anchored_off(d, starts, targets, pool, deliveries)
    bridges: dict[int, Path] = {}
    adj = d.adjacency
    for x, y in pairs:
        p, q = launches[x].last, deliveries[y].first
        allowed = np.ones(d.n, dtype=bool)
        allowed[sorted(blocked)] = False
        mids = np.flatnonzero(adj[p] & adj[:, q] & allowed)
        stats = {
            "anchored_out": int(np.count_nonzero(adj[p] & anchored)),
            "free_middles": int(mids.size),
        }
        bridge = None
        if adj[p, q]:
            bridge = Path(d, (p, q))
        elif mids.size:
            bridge = Path(d, (p, int(mids[0]), q))
        if bridge is None:
            firsts = np.flatnonzero(adj[p] & allowed)
            seconds = adj[:, q] & allowed
            for v in firsts:
                ws = np.flatnonzero(adj[v] & seconds)
                ws = ws[ws != v]
                if ws.size:
                    bridge = Path(d, (p, int(v), int(ws[0]), q))
                    break
        _check(bridge is not None, "bridges",
               "no connector of length <= 3 for this pair",
               start=int(x), target=int(y), **stats)
        bridges[x] = bridge
        blocked |= set(bridge.interior())
        trace.add("bridge", start=int(x), target=int(y),
                  path=list(bridge.vertices), **stats)
    return bridges


def _hypothesis_post_mortem(d: Digraph, k: int, sample_pairs: int = 30) -> str:
    """Cheap classification of a failure: hypothesis violation vs defect."""
    ok, note = check_hypotheses(d, k, f"sample:{sample_pairs}")
    if not ok:
        return f"hypothesis violated: {note}"
    return ("hypotheses hold on sampled evidence; "
            "a failed step indicates an implementation defect")


def check_hypotheses(d: Digraph, k: int, mode: str = "exact") -> tuple[bool, str]:
    """Check min out-degree (exact) and (2k+1)-connectivity (exact/sampled)."""
    if mode.startswith("sample:"):
        pairs = int(mode.split(":", 1)[1])
        if pairs < 1:
            raise ValueError(f"hypothesis-check mode {mode!r} samples no pair")
    elif mode != "exact":
        raise ValueError(f"unknown hypothesis-check mode {mode!r}")
    need_degree = 7 * k * k + 36 * k
    degree = d.min_out_degree()
    if degree < need_degree:
        return False, f"min out-degree {degree} < {need_degree}"
    need = 2 * k + 1
    if mode == "exact":
        if not is_k_connected(d, need):
            return False, f"not {need}-connected"
        return True, f"min out-degree {degree}, {need}-connected (exact)"
    for u, v in _sample_pairs(d.n, pairs, seed=0):
        value = _cut_value(d, u, v, cap=need)
        if value < need:
            return False, f"pair ({u}, {v}) has cut {value} < {need}"
    return True, f"min out-degree {degree}, {need}-connectivity sampled ok"


def link(instance: LinkageInstance, check: str | None = None,
         trace: LinkerTrace | None = None) -> LinkageCertificate | FailureReport:
    """Produce disjoint paths for every terminal pair, or a failure report.

    ``check`` optionally verifies the sufficient conditions up front
    ("exact" or "sample:N").  The returned certificate has been validated
    by the independent verifier before it is handed back.
    """
    d = instance.d
    if not is_semicomplete(d):
        raise ValueError("the linker requires a semicomplete digraph")
    trace = trace if trace is not None else LinkerTrace()
    k = instance.k
    pairs = instance.pairs
    starts, targets = instance.starts, instance.targets
    if check is not None:
        ok, note = check_hypotheses(d, k, check)
        trace.add("hypotheses", ok=ok, note=note)
        if not ok:
            return FailureReport("hypothesis-check", note, {}, note, trace)
    try:
        pool = build_dominating_set(d, starts, targets, trace)
        split = classify_terminals(d, starts, targets, pool, trace)
        deliveries, special = initial_path_system(d, starts, targets, pool,
                                                  split, trace)
        adjusted = adjust_paths(d, starts, targets, pool, split,
                                deliveries, special, trace)
        finals = finalize_deliveries(d, starts, pool, adjusted.deliveries,
                                     adjusted.stand_ins, trace)
        launches = build_launches(d, starts, targets, pool, adjusted.matched,
                                  finals, trace)
        bridges = build_bridges(d, pairs, launches, finals, pool, trace)
        paths = []
        provenance = []
        for x, y in pairs:
            paths.append(launches[x].vertices + bridges[x].vertices[1:]
                         + finals[y].vertices[1:])
            provenance.append({
                "start": int(x), "target": int(y),
                "launch": list(launches[x].vertices),
                "bridge": list(bridges[x].vertices),
                "delivery": list(finals[y].vertices),
            })
        try:
            verify_linkage_certificate(d, pairs, paths)
        except CertificateError as exc:
            raise LinkerCheckError("certificate", str(exc))
        trace.add("done", lengths=[len(p) - 1 for p in paths])
        return LinkageCertificate(tuple(paths), tuple(provenance))
    except LinkerCheckError as exc:
        return FailureReport(exc.step, exc.reason, exc.details,
                             _hypothesis_post_mortem(d, k), trace)
