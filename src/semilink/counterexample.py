"""A structured tournament family that defeats pairwise linkage.

For a width ``k >= 42`` and order ``n >= k*k`` the builder assembles a
tournament around a grid of k disjoint tracks of ``l + 2`` steps each
(``l = k // 13``):

* the first ``k // 2`` tracks form the *ladder*: within it every arc not on
  a track points from a higher step to a lower one, and each rung (the
  vertices of one step) is transitive, so any ladder traversal must climb
  the rungs one at a time;
* the remaining track interiors form the *mesh*, beaten wholesale by the
  ladder;
* track heads live inside a large regular *reservoir* (a circulant
  tournament) that supplies connectivity;
* behind the tails sit three transitive tiers: *relays*, *targets* and the
  reverse-ordered *mirrors*, wired to the tails and to each other by shifted
  comparisons with perfect matchings on the diagonals;
* k *start* vertices reach only one interior half each (front starts the
  mesh, back starts the ladder) plus the targets, except the matched target
  which beats its start;
* a *bypass* vertex inside the reservoir feeds the targets and mirrors, and
  an *outlet* vertex is fed by the whole reservoir and beats everything
  else.

The verifier re-checks all thirteen wiring rules (plus the tier orders,
reservoir regularity and track arcs) from the layout alone and reports a
witness arc for any violation, so single-arc faults are caught and named.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .digraph import Digraph, Path, PathSystem, is_tournament
from .flows import _sample_pairs, local_cut

MIN_WIDTH = 42  # smallest k for which the sizing margins of the family close

CORE_RULES = (
    "rung_order",          # each ladder rung is transitive in track order
    "ladder_descent",      # non-track ladder arcs point to strictly lower steps
    "ladder_over_mesh",    # every ladder vertex beats every mesh vertex
    "tail_block",          # tails transitive; tails beat interiors, interiors beat heads
    "grid_over_reservoir",  # interiors and tails beat the whole reservoir
    "tail_relay_split",    # tail j beats relay i iff j >= i (diagonal matching)
    "relay_target_split",  # relay j beats target i iff j >= i (diagonal matching)
    "relay_mirror_split",  # reversed: relay j beats mirror i iff j < i
    "bypass_feed",         # the bypass beats all targets and mirrors
    "tier_dominance",      # targets/mirrors beat grid and reservoir-minus-bypass, etc.
    "start_reach",         # starts reach exactly their interior half off starts/targets
    "start_target",        # all start->target arcs except the matched diagonal
    "outlet",              # reservoir beats outlet, outlet beats everything else
)

EXTRA_CHECKS = ("tournament", "track_paths", "tier_orders",
                "reservoir_regular", "no_forward_jump")


@dataclass(frozen=True)
class CounterexampleParams:
    k: int
    n: int
    seed: int | None = None

    def __post_init__(self):
        if self.k < MIN_WIDTH:
            raise ValueError(f"k must be >= {MIN_WIDTH}")
        if self.n < self.k * self.k:
            raise ValueError("n must be >= k*k")
        if self.reservoir_size % 2 == 0:
            raise ValueError(
                f"order {self.n} leaves an even reservoir ({self.reservoir_size}); "
                "a regular reservoir needs odd order - use n+1 or n-1")

    @property
    def l(self) -> int:
        return self.k // 13

    @property
    def reservoir_size(self) -> int:
        return self.n - self.k * (self.l + 2) - 3 * self.k - 1


@dataclass(frozen=True)
class CounterexampleLayout:
    """Role assignment for every vertex of a built instance."""

    k: int
    n: int
    l: int
    track: np.ndarray   # shape (k, l + 2)
    core: np.ndarray    # reservoir vertices that are not track heads
    relays: np.ndarray
    targets: np.ndarray
    mirrors: np.ndarray
    starts: np.ndarray
    outlet: int

    @property
    def half(self) -> int:
        return self.k // 2

    @property
    def bypass(self) -> int:
        return int(self.core[0])

    def heads(self) -> np.ndarray:
        return self.track[:, 0]

    def tails(self) -> np.ndarray:
        return self.track[:, -1]

    def rung(self, t: int) -> np.ndarray:
        """Step-t vertices of the ladder tracks (t in 0..l+1)."""
        return self.track[:self.half, t]

    def ladder(self) -> np.ndarray:
        return self.track[:self.half, 1:-1].ravel()

    def mesh(self) -> np.ndarray:
        return self.track[self.half:, 1:-1].ravel()

    def interiors(self) -> np.ndarray:
        return self.track[:, 1:-1].ravel()

    def grid(self) -> np.ndarray:
        return self.track.ravel()

    def reservoir(self) -> np.ndarray:
        return np.concatenate([self.heads(), self.core])

    def starts_front(self) -> np.ndarray:
        return self.starts[:self.half]

    def starts_back(self) -> np.ndarray:
        return self.starts[self.half:]

    def role_of(self, v: int) -> str:
        if v == self.outlet:
            return "outlet"
        if v == self.bypass:
            return "bypass"
        for name, ids in (("core", self.core), ("relay", self.relays),
                          ("target", self.targets), ("mirror", self.mirrors),
                          ("start", self.starts)):
            pos = np.flatnonzero(ids == v)
            if pos.size:
                return f"{name}:{int(pos[0])}"
        pos = np.argwhere(self.track == v)
        if pos.size:
            i, t = map(int, pos[0])
            return f"track:{i}:{t}"
        raise ValueError(f"vertex {v} not in layout")

    def to_json(self) -> str:
        data = {
            "k": self.k, "n": self.n, "l": self.l,
            "roles": {
                "tracks": self.track.tolist(),
                "core": self.core.tolist(),
                "relays": self.relays.tolist(),
                "targets": self.targets.tolist(),
                "mirrors": self.mirrors.tolist(),
                "starts": self.starts.tolist(),
                "bypass": self.bypass,
                "outlet": self.outlet,
            },
        }
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CounterexampleLayout":
        data = json.loads(text)
        roles = data["roles"]
        return cls(
            k=int(data["k"]), n=int(data["n"]), l=int(data["l"]),
            track=np.asarray(roles["tracks"], dtype=np.int64),
            core=np.asarray(roles["core"], dtype=np.int64),
            relays=np.asarray(roles["relays"], dtype=np.int64),
            targets=np.asarray(roles["targets"], dtype=np.int64),
            mirrors=np.asarray(roles["mirrors"], dtype=np.int64),
            starts=np.asarray(roles["starts"], dtype=np.int64),
            outlet=int(roles["outlet"]),
        )


def build_counterexample(k: int, n: int, seed: int | None = None
                         ) -> tuple[Digraph, CounterexampleLayout]:
    """Build the tournament and its layout for the given width and order.

    ``seed`` randomizes the two free zones (arcs inside the mesh that are
    not track arcs, and arcs among the starts); with ``seed=None`` both
    default to the deterministic layered/transitive orientation.  Everything
    else is forced by the wiring rules.
    """
    params = CounterexampleParams(k, n, seed)
    l, half = params.l, k // 2
    steps = l + 2
    track = np.arange(k * steps, dtype=np.int64).reshape(k, steps)
    g_end = k * steps
    core = np.arange(g_end, g_end + params.reservoir_size - k, dtype=np.int64)
    pos = core[-1] + 1
    relays = np.arange(pos, pos + k)
    targets = np.arange(pos + k, pos + 2 * k)
    mirrors = np.arange(pos + 2 * k, pos + 3 * k)
    starts = np.arange(pos + 3 * k, pos + 4 * k)
    outlet = int(pos + 4 * k)
    if outlet != n - 1:
        raise AssertionError(f"outlet {outlet} is not the last vertex {n - 1}")

    layout = CounterexampleLayout(k=k, n=n, l=l, track=track, core=core,
                                  relays=relays, targets=targets,
                                  mirrors=mirrors, starts=starts, outlet=outlet)

    adj = np.zeros((n, n), dtype=bool)
    rng = np.random.Generator(np.random.PCG64(seed)) if seed is not None else None

    def beats(a: np.ndarray, b: np.ndarray) -> None:
        adj[np.ix_(np.atleast_1d(a), np.atleast_1d(b))] = True

    def layered_block(rows: np.ndarray) -> None:
        # Transitive within each step column, higher step beats lower step,
        # except the forward track arcs (already placed).
        m = rows.shape[0]
        upper = np.triu(np.ones((m, m), dtype=bool), 1)
        for t in range(1, l + 1):
            col = rows[:, t]
            adj[np.ix_(col, col)] = upper
            for j in range(1, t):
                block = np.ones((m, m), dtype=bool)
                if j == t - 1:
                    np.fill_diagonal(block, False)  # the track arc points forward
                adj[np.ix_(col, rows[:, j])] = block

    # Track arcs.
    for t in range(steps - 1):
        adj[track[:, t], track[:, t + 1]] = True

    ladder_rows = track[:half]
    mesh_rows = track[half:]
    ladder = layout.ladder()
    mesh = layout.mesh()
    interiors = layout.interiors()
    heads, tails = layout.heads(), layout.tails()
    reservoir = layout.reservoir()

    layered_block(ladder_rows)
    if rng is None:
        layered_block(mesh_rows)
    else:
        _random_free_zone(adj, mesh, mesh_rows, rng)
    beats(ladder, mesh)

    # Tail block: transitive tails, tails beat interiors and heads,
    # interiors beat heads; the two track arcs at the grid borders stand.
    adj[np.ix_(tails, tails)] = np.triu(np.ones((k, k), dtype=bool), 1)
    beats(tails, interiors)
    for i in range(k):
        adj[tails[i], track[i, l]] = False
    beats(tails, heads)
    beats(interiors, heads)
    for i in range(k):
        adj[track[i, 1], heads[i]] = False

    # Reservoir: regular circulant over heads-then-core order.
    m = reservoir.size
    diff = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    circ = (diff >= 1) & (diff <= (m - 1) // 2)
    adj[np.ix_(reservoir, reservoir)] = circ

    beats(interiors, core)
    beats(tails, core)

    # Tier orders: relays and targets increasing, mirrors reversed.
    upper_k = np.triu(np.ones((k, k), dtype=bool), 1)
    adj[np.ix_(relays, relays)] = upper_k
    adj[np.ix_(targets, targets)] = upper_k
    adj[np.ix_(mirrors, mirrors)] = upper_k.T

    idx = np.arange(k)
    ge = idx[:, None] >= idx[None, :]
    adj[np.ix_(tails, relays)] = ge          # tail j -> relay i iff j >= i
    adj[np.ix_(relays, tails)] = ~ge.T
    adj[np.ix_(relays, targets)] = ge        # relay j -> target i iff j >= i
    adj[np.ix_(targets, relays)] = ~ge.T
    adj[np.ix_(relays, mirrors)] = ~ge       # relay j -> mirror i iff j < i
    adj[np.ix_(mirrors, relays)] = ge.T

    bypass = layout.bypass
    beats(np.array([bypass]), targets)
    beats(np.array([bypass]), mirrors)
    not_bypass = reservoir[reservoir != bypass]
    for tier in (targets, mirrors):
        beats(tier, layout.grid())
        beats(tier, not_bypass)
    beats(targets, mirrors)
    beats(relays, interiors)
    beats(relays, reservoir)

    # Starts: front reaches the mesh, back reaches the ladder; everything
    # else beats them.
    front, back = layout.starts_front(), layout.starts_back()
    beats(front, mesh)
    beats(mesh, back)
    beats(back, ladder)
    beats(ladder, front)
    for block in (reservoir, tails, relays, mirrors):
        beats(block, starts)
    if rng is None:
        adj[np.ix_(starts, starts)] = upper_k
    else:
        ori = rng.integers(0, 2, size=(k, k)).astype(bool)
        adj[np.ix_(starts, starts)] = np.triu(ori, 1) | np.tril(~ori.T, -1)
    eye = np.eye(k, dtype=bool)
    adj[np.ix_(starts, targets)] = ~eye
    adj[np.ix_(targets, starts)] = eye

    out = np.array([outlet])
    beats(reservoir, out)
    for block in (interiors, tails, relays, targets, mirrors, starts):
        beats(out, block)

    d = Digraph(adj, copy=False)
    if not is_tournament(d):
        raise AssertionError("construction produced a non-tournament; this is a defect")
    return d, layout


def _random_free_zone(adj: np.ndarray, ids: np.ndarray, rows: np.ndarray,
                      rng: np.random.Generator) -> None:
    """Randomly orient all pairs inside a free zone, keeping track arcs."""
    m = ids.size
    ori = rng.integers(0, 2, size=(m, m)).astype(bool)
    block = np.triu(ori, 1) | np.tril(~ori.T, -1)
    adj[np.ix_(ids, ids)] = block
    cols = rows.shape[1]
    for i in range(rows.shape[0]):
        for t in range(1, cols - 2):
            adj[rows[i, t], rows[i, t + 1]] = True
            adj[rows[i, t + 1], rows[i, t]] = False


@dataclass(frozen=True)
class RuleWitness:
    u: int
    v: int
    expected: str

    def describe(self) -> str:
        return f"pair ({self.u}, {self.v}): expected {self.expected}"


@dataclass(frozen=True)
class RuleCheck:
    name: str
    passed: bool
    witness: RuleWitness | None = None


@dataclass(frozen=True)
class ConstructionReport:
    checks: tuple[RuleCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def core_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.name in CORE_RULES)

    def failed(self) -> tuple[RuleCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def by_name(self, name: str) -> RuleCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class _Checker:
    def __init__(self, d: Digraph, layout: CounterexampleLayout):
        self.adj = d.adjacency
        self.lay = layout
        self.results: list[RuleCheck] = []

    def record(self, name: str, witness: RuleWitness | None) -> None:
        self.results.append(RuleCheck(name, witness is None, witness))

    def all_arcs(self, a: Iterable[int], b: Iterable[int],
                 skip: set[tuple[int, int]] = frozenset()) -> RuleWitness | None:
        """Expect arc u->v (and not v->u) for every u in a, v in b."""
        a = np.atleast_1d(np.asarray(list(np.atleast_1d(a)), dtype=np.int64))
        b = np.atleast_1d(np.asarray(list(np.atleast_1d(b)), dtype=np.int64))
        fwd = self.adj[np.ix_(a, b)]
        rev = self.adj[np.ix_(b, a)].T
        bad = ~fwd | rev
        if bad.any():
            for ia, ib in np.argwhere(bad):
                u, v = int(a[ia]), int(b[ib])
                if (u, v) not in skip:
                    return RuleWitness(u, v, f"{u}->{v} only")
        return None

    def transitive(self, ids: np.ndarray) -> RuleWitness | None:
        """Expect arcs to follow the given order exactly."""
        block = self.adj[np.ix_(ids, ids)]
        want = np.triu(np.ones((ids.size, ids.size), dtype=bool), 1)
        bad = block != want
        np.fill_diagonal(bad, False)
        if bad.any():
            ia, ib = map(int, np.argwhere(bad)[0])
            u, v = int(ids[ia]), int(ids[ib])
            expected = f"{u}->{v} only" if want[ia, ib] else f"{v}->{u} only"
            return RuleWitness(u, v, expected)
        return None


def verify_construction_rules(d: Digraph, layout: CounterexampleLayout
                              ) -> ConstructionReport:
    """Re-check every wiring rule from the layout; witness arcs on failure."""
    if d.n != layout.n:
        raise ValueError("layout does not match the digraph")
    ch = _Checker(d, layout)
    lay = layout
    adj = d.adjacency
    k, l, half = lay.k, lay.l, lay.half
    track = lay.track

    # rung_order: every interior ladder rung is transitive in track order.
    w = None
    for t in range(1, l + 1):
        w = w or ch.transitive(lay.rung(t))
    ch.record("rung_order", w)

    # ladder_descent: between different interior steps of the ladder all arcs
    # run to the lower step, except the forward track arcs.
    w = None
    for t in range(1, l + 1):
        for j in range(1, t):
            skip = set()
            if j == t - 1:
                skip = {(int(track[i, t]), int(track[i, j]))
                        for i in range(half)}
                for i in range(half):
                    u, v = int(track[i, j]), int(track[i, t])
                    if not adj[u, v] or adj[v, u]:
                        w = w or RuleWitness(u, v, f"{u}->{v} only (track arc)")
            w = w or ch.all_arcs(track[:half, t], track[:half, j], skip)
    ch.record("ladder_descent", w)

    # ladder_over_mesh, plus the mesh must be internally a tournament.
    w = ch.all_arcs(lay.ladder(), lay.mesh())
    w = w or _tournament_witness(adj, lay.mesh())
    ch.record("ladder_over_mesh", w)

    # tail_block: tails transitive; tails beat interiors except the last
    # track arcs; interiors beat heads except the first track arcs; tails
    # beat heads.
    w = ch.transitive(lay.tails())
    skip = {(int(track[i, l + 1]), int(track[i, l])) for i in range(k)}
    w = w or ch.all_arcs(lay.tails(), lay.interiors(), skip)
    for i in range(k):
        u, v = int(track[i, l]), int(track[i, l + 1])
        if not adj[u, v] or adj[v, u]:
            w = w or RuleWitness(u, v, f"{u}->{v} only (track arc)")
    skip = {(int(track[i, 1]), int(track[i, 0])) for i in range(k)}
    w = w or ch.all_arcs(lay.interiors(), lay.heads(), skip)
    for i in range(k):
        u, v = int(track[i, 0]), int(track[i, 1])
        if not adj[u, v] or adj[v, u]:
            w = w or RuleWitness(u, v, f"{u}->{v} only (track arc)")
    w = w or ch.all_arcs(lay.tails(), lay.heads())
    ch.record("tail_block", w)

    # grid_over_reservoir: interiors and tails beat every core vertex.
    w = ch.all_arcs(lay.interiors(), lay.core)
    w = w or ch.all_arcs(lay.tails(), lay.core)
    ch.record("grid_over_reservoir", w)

    ch.record("tail_relay_split",
              _split_witness(adj, lay.tails(), lay.relays, lambda j, i: j >= i))
    ch.record("relay_target_split",
              _split_witness(adj, lay.relays, lay.targets, lambda j, i: j >= i))
    ch.record("relay_mirror_split",
              _split_witness(adj, lay.relays, lay.mirrors, lambda j, i: j < i))

    w = ch.all_arcs([lay.bypass], lay.targets)
    w = w or ch.all_arcs([lay.bypass], lay.mirrors)
    ch.record("bypass_feed", w)

    # tier_dominance: targets beat mirrors; targets and mirrors beat the
    # grid and the reservoir minus the bypass; relays beat interiors and
    # the reservoir.
    res = lay.reservoir()
    not_bypass = res[res != lay.bypass]
    w = ch.all_arcs(lay.targets, lay.mirrors)
    for tier in (lay.targets, lay.mirrors):
        w = w or ch.all_arcs(tier, lay.grid())
        w = w or ch.all_arcs(tier, not_bypass)
    w = w or ch.all_arcs(lay.relays, lay.interiors())
    w = w or ch.all_arcs(lay.relays, res)
    ch.record("tier_dominance", w)

    # start_reach: off starts and targets, each start's out-neighbourhood is
    # exactly its interior half; the starts induce a tournament.
    w = None
    off = np.ones(d.n, dtype=bool)
    off[lay.starts] = False
    off[lay.targets] = False
    for pos, s in enumerate(lay.starts):
        want = np.zeros(d.n, dtype=bool)
        want[lay.mesh() if pos < half else lay.ladder()] = True
        got = adj[s] & off
        diff = got != want
        if diff.any():
            v = int(np.flatnonzero(diff)[0])
            direction = f"{s}->{v} absent" if want[v] else f"{s}->{v} present"
            w = w or RuleWitness(int(s), v, f"out-reach mismatch: {direction}")
    w = w or _tournament_witness(adj, lay.starts)
    ch.record("start_reach", w)

    # start_target: all arcs start->target except the matched diagonal.
    w = None
    block_f = adj[np.ix_(lay.starts, lay.targets)]
    block_r = adj[np.ix_(lay.targets, lay.starts)]
    eye = np.eye(k, dtype=bool)
    if (block_f != ~eye).any() or (block_r != eye.T).any():
        bad = (block_f != ~eye) | (block_r != eye.T).T
        ia, ib = map(int, np.argwhere(bad)[0])
        u, v = int(lay.starts[ia]), int(lay.targets[ib])
        want = f"{v}->{u} only" if ia == ib else f"{u}->{v} only"
        w = RuleWitness(u, v, want)
    ch.record("start_target", w)

    # outlet: the reservoir beats the outlet, the outlet beats the rest.
    w = ch.all_arcs(res, [lay.outlet])
    rest = np.ones(d.n, dtype=bool)
    rest[res] = False
    rest[lay.outlet] = False
    w = w or ch.all_arcs([lay.outlet], np.flatnonzero(rest))
    ch.record("outlet", w)

    # Supplementary structure checks.
    ch.record("tournament", _tournament_witness(adj, np.arange(d.n)))

    w = None
    for i in range(k):
        for t in range(l + 1):
            u, v = int(track[i, t]), int(track[i, t + 1])
            if not adj[u, v]:
                w = w or RuleWitness(u, v, f"{u}->{v} missing (track arc)")
    ch.record("track_paths", w)

    w = ch.transitive(lay.relays)
    w = w or ch.transitive(lay.targets)
    w = w or ch.transitive(lay.mirrors[::-1])
    ch.record("tier_orders", w)

    sub = adj[np.ix_(res, res)]
    outs = sub.sum(axis=1)
    ins = sub.sum(axis=0)
    w = None
    if not (outs == outs[0]).all() or not (ins == ins[0]).all():
        v = int(res[int(np.argmax(outs != outs[0]))])
        w = RuleWitness(v, v, "reservoir must induce a regular tournament")
    ch.record("reservoir_regular", w)

    # no_forward_jump: no arc from a ladder step j to a step t >= j + 2,
    # over the full range including heads and tails.
    w = None
    for j in range(l + 2):
        for t in range(j + 2, l + 2):
            block = adj[np.ix_(lay.rung(j), lay.rung(t))]
            if block.any():
                ia, ib = map(int, np.argwhere(block)[0])
                u, v = int(lay.rung(j)[ia]), int(lay.rung(t)[ib])
                w = w or RuleWitness(u, v, f"no {u}->{v} (forward jump)")
    ch.record("no_forward_jump", w)

    return ConstructionReport(tuple(ch.results))


def _tournament_witness(adj: np.ndarray, ids: np.ndarray) -> RuleWitness | None:
    block = adj[np.ix_(ids, ids)]
    both = block & block.T
    if both.any():
        ia, ib = map(int, np.argwhere(np.triu(both, 1))[0])
        return RuleWitness(int(ids[ia]), int(ids[ib]), "exactly one arc")
    neither = ~(block | block.T)
    np.fill_diagonal(neither, False)
    if neither.any():
        ia, ib = map(int, np.argwhere(neither)[0])
        return RuleWitness(int(ids[ia]), int(ids[ib]), "exactly one arc")
    return None


def _split_witness(adj: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   fwd) -> RuleWitness | None:
    k = rows.size
    idx = np.arange(k)
    want = np.zeros((k, k), dtype=bool)
    for j in range(k):
        want[j] = [fwd(j, i) for i in idx]
    block_f = adj[np.ix_(rows, cols)]
    block_r = adj[np.ix_(cols, rows)].T
    bad = (block_f != want) | (block_r != ~want)
    if bad.any():
        ia, ib = map(int, np.argwhere(bad)[0])
        u, v = int(rows[ia]), int(cols[ib])
        direction = f"{u}->{v} only" if want[ia, ib] else f"{v}->{u} only"
        return RuleWitness(u, v, direction)
    return None


def verify_property_two(d: Digraph, layout: CounterexampleLayout) -> PathSystem:
    """Exhibit k+1 disjoint paths from the reservoir into targets + outlet.

    The paths live outside the grid, the relays and the bypass: k two-arc
    paths route through the starts into shifted targets, one arc reaches the
    outlet.  Disjointness and arc validity are enforced by construction of
    the returned system.
    """
    k = layout.k
    pool = [int(v) for v in layout.core if v != layout.bypass][:k + 1]
    if len(pool) < k + 1:
        raise ValueError("reservoir too small to exhibit the paths")
    paths = []
    for i in range(k):
        tgt = layout.targets[(i + 1) % k]
        paths.append(Path(d, (pool[i], int(layout.starts[i]), int(tgt))))
    paths.append(Path(d, (pool[k], layout.outlet)))
    system = PathSystem(paths)
    banned = set(map(int, layout.grid())) | set(map(int, layout.relays)) | {layout.bypass}
    overlap = system.vertex_set() & banned
    if overlap:
        raise AssertionError(f"paths touch banned vertices {sorted(overlap)}")
    return system


@dataclass(frozen=True)
class SampledConnectivity:
    target: int
    pairs: tuple[tuple[int, int], ...]
    values: tuple[int, ...]
    min_observed: int

    @property
    def all_ok(self) -> bool:
        return self.min_observed >= self.target

    def failures(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((u, v, val) for (u, v), val in zip(self.pairs, self.values)
                     if val < self.target)


def sampled_connectivity_check(d: Digraph, target: int, pairs: int, seed: int,
                               threads: int = 1) -> SampledConnectivity:
    """Exact minimum vertex cuts for randomly sampled ordered pairs.

    Every sampled pair's cut is computed exactly and compared against
    ``target``; pair queries are independent and may run on a thread pool.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    sampled = list(_sample_pairs(d.n, pairs, seed))

    def value(pair: tuple[int, int]) -> int:
        return local_cut(d, pair[0], pair[1]).value

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(value, sampled))
    else:
        values = [value(p) for p in sampled]
    return SampledConnectivity(target, tuple(sampled), tuple(values),
                               min(values))
