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

The wiring is stated once, as a table of orientation blocks (a few blocks
of the adjacency per rule, each with the orientation it must have).  The
builder writes that table, and the verifier checks the adjacency against
it.

What is computed about a built instance, from its layout alone:

* :func:`verify_construction_rules` checks the thirteen wiring rules of
  ``CORE_RULES`` and the five checks of ``EXTRA_CHECKS``.  Each wiring rule
  is one orientation check of its blocks.  A violation comes with a witness
  pair, so a single-arc fault outside the free zones is caught and named.
  A fresh build meets the orientation blocks by construction, so on one the
  verifier certifies that the rules agree with each other (no pair is
  oriented both ways), the tournament property, the track arcs and the
  reservoir's regularity; the builder itself is pinned by adjacency digests
  in the tests;
* :func:`verify_property_two` exhibits the k+1 disjoint escape paths from
  the reservoir into the targets and the outlet;
* :func:`sampled_connectivity_check` computes exact minimum cuts for
  sampled vertex pairs only, which is evidence for, not a proof of,
  (2k+1)-connectivity.

That the instance is not k-linked (for the reference instance, not
42-linked) is not computed: it follows from the paper's proof, given the
wiring rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .digraph import (Digraph, Path, PathSystem, _check_order, _first_bad_row,
                      _upper_bands, _vertex_id, _vertex_ids, is_tournament)
from .flows import _cut_value, _sample_pairs
from .generators import _random_orientation, rotational_tournament

MIN_WIDTH = 42  # smallest k for which the sizing margins of the family close

CORE_RULES = (
    "rung_order",          # each ladder rung is transitive in track order
    "ladder_descent",      # non-track ladder arcs point to strictly lower steps
    "ladder_over_mesh",    # every ladder vertex beats every mesh vertex
    "tail_block",          # tails transitive; tails beat interiors and heads, interiors beat heads
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

    def __post_init__(self):
        if _vertex_id(self.k, "k", None) < MIN_WIDTH:
            raise ValueError(f"k must be >= {MIN_WIDTH}")
        _check_order(self.n)
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
    """Role assignment for every vertex of a built instance.

    The width k and the step count l + 2 are the shape of ``track``; each
    tier (relays, targets, mirrors, starts) holds k ids.
    """

    n: int
    track: np.ndarray   # shape (k, l + 2)
    core: np.ndarray    # reservoir vertices that are not track heads
    relays: np.ndarray
    targets: np.ndarray
    mirrors: np.ndarray
    starts: np.ndarray
    outlet: int

    @property
    def k(self) -> int:
        return self.track.shape[0]

    @property
    def l(self) -> int:
        return self.track.shape[1] - 2

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
        """Parse :meth:`to_json` output.

        A missing key, a wrong type, ragged tracks or tracks of fewer than 3
        steps, a ``k`` other than the number of track rows, an ``l`` other
        than the steps per track less 2, a tier that does not hold k ids, an
        id or size that is not an integer (a float, a string or a bool), a
        role id outside 0..n-1 or a ``bypass`` other than ``core[0]`` raises
        ValueError.
        """
        data = json.loads(text)
        try:
            roles = data["roles"]
            n = _vertex_id(data["n"], "layout n", None)
            k, l = (_vertex_id(data[key], f"layout {key}", None) for key in ("k", "l"))
            # item by item: np.asarray(..., dtype=np.int64) would truncate 0.5
            rows = [_vertex_ids(row, "layout tracks id", n) for row in roles["tracks"]]
            lengths = sorted({len(row) for row in rows})
            if len(lengths) > 1:
                raise ValueError(f"layout tracks are ragged: rows of {lengths[0]} "
                                 f"to {lengths[-1]} steps")
            track = np.asarray(rows, dtype=np.int64)
            tier = {name: np.asarray(_vertex_ids(roles[name], f"layout {name} id", n),
                                     dtype=np.int64)
                    for name in ("core", "relays", "targets", "mirrors", "starts")}
            layout = cls(n=n, track=track, **tier,
                         outlet=_vertex_id(roles["outlet"], "layout outlet id", n))
            bypass = _vertex_id(roles["bypass"], "layout bypass", None)
        except KeyError as exc:
            raise ValueError(f"layout is missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"layout has a wrong type: {exc}") from None
        if layout.track.ndim != 2 or not layout.core.size:
            raise ValueError("layout tracks must be a list of lists and the core non-empty")
        steps = layout.track.shape[1]
        if steps < 3:
            raise ValueError(f"layout tracks have {steps} steps, fewer than 3")
        if k != layout.k:
            raise ValueError(f"layout k {k} does not match the {layout.k} track rows")
        if l != layout.l:
            raise ValueError(f"layout l {l} does not match the {steps} steps per track (l + 2)")
        for name in ("relays", "targets", "mirrors", "starts"):
            if tier[name].size != layout.k:
                raise ValueError(f"layout {name} hold {tier[name].size} ids, not k = {layout.k}")
        if bypass != layout.bypass:
            raise ValueError(f"layout bypass {bypass} is not core[0] = {layout.bypass}")
        return layout


def build_counterexample(k: int, n: int, seed: int | None = None
                         ) -> tuple[Digraph, CounterexampleLayout]:
    """Build the tournament and its layout for the given width and order.

    ``seed`` randomizes the two free zones (arcs inside the mesh that are
    not track arcs, and arcs among the starts); with ``seed=None`` both
    default to the deterministic layered/transitive orientation.  Everything
    else is forced by the wiring rules: the reservoir's circulant and the
    blocks of :func:`_wiring`, which the verifier reads back.
    """
    params = CounterexampleParams(k, n)
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

    layout = CounterexampleLayout(n=n, track=track, core=core, relays=relays,
                                  targets=targets, mirrors=mirrors, starts=starts,
                                  outlet=outlet)

    adj = np.zeros((n, n), dtype=bool)
    # The free zones: the mesh, track arcs kept, and the starts.
    if seed is None:
        upper = np.triu(np.ones((k, k), dtype=bool), 1)
        mesh_steps = [_side(track[half:, t], n) for t in range(1, l + 1)]
        start_side = _side(starts, n)
        for block in _layered(mesh_steps) + [(start_side, start_side, upper)]:
            _write(adj, *block)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        _random_free_zone(adj, track[half:, 1:-1], rng)
        _random_free_zone(adj, starts[:, None], rng)

    # Reservoir: regular circulant over heads-then-core order.  Heads and
    # core are each a progression, so each of the four blocks is a slice.
    circ = rotational_tournament(params.reservoir_size).adjacency
    parts = ((_side(layout.heads(), n).index, slice(0, k)),
             (_side(core, n).index, slice(k, None)))
    for rows, r in parts:
        for cols, c in parts:
            adj[_block_index(rows, cols)] = circ[r, c]

    for rule in _wiring(layout).values():
        for rows, cols, want in rule:
            if want is not None:
                _write(adj, rows, cols, want)

    d = Digraph(adj, copy=False)
    if not is_tournament(d):
        raise AssertionError("construction produced a non-tournament; this is a defect")
    return d, layout


def _random_free_zone(adj: np.ndarray, rows: np.ndarray,
                      rng: np.random.Generator) -> None:
    """Randomly orient all pairs among ``rows``, keeping the arcs along each row."""
    ids = rows.ravel()
    adj[np.ix_(ids, ids)] = _random_orientation(rng, ids.size)
    adj[rows[:, :-1], rows[:, 1:]] = True
    adj[rows[:, 1:], rows[:, :-1]] = False


def _layered(steps: list[_Side]) -> list[tuple]:
    """The layered blocks of consecutive track ``steps``, lowest first.

    Each step is transitive in track order; of each pair of steps, the
    higher beats the lower, except along the track arcs.
    """
    idx = np.arange(steps[0].ids.size)
    before = idx[:, None] < idx[None, :]
    off_diag = idx[:, None] != idx[None, :]
    return [(step, step, before) for step in steps] \
        + [(steps[t], steps[j], off_diag if j == t - 1 else True)
           for t in range(len(steps)) for j in range(t)]


def _mask(n: int, *parts) -> np.ndarray:
    """The ids of ``parts`` as a boolean mask over 0..n-1."""
    mask = np.zeros(n, dtype=bool)
    for part in parts:
        mask[part] = True
    return mask


def _wiring(layout: CounterexampleLayout) -> dict[str, list[tuple]]:
    """Every orientation block of the family, by the name of its check.

    A block ``(rows, cols, want)`` is read by :func:`_orientation_witness`
    and written by :func:`_write`; ``rows`` and ``cols`` are :class:`_Side`
    values, each role resolved once per call and shared by all its blocks.
    ``want=None`` asks only for a tournament: the two free zones, each read
    as one block per band of :func:`~semilink.digraph._upper_bands`.  The
    reservoir's circulant and the ``tournament`` check over all pairs are
    the parts of the family stated elsewhere.
    """
    lay = layout
    n, k, l, half = lay.n, lay.k, lay.l, lay.half

    def side(ids):
        return _side(ids, n)

    steps = [side(lay.track[:, t]) for t in range(l + 2)]
    rungs = [side(lay.rung(t)) for t in range(l + 2)]
    heads, tails = steps[0], steps[-1]
    interiors, grid, core, relays, targets, mirrors, starts, bypass, outlet = map(
        side, (lay.interiors(), lay.grid(), lay.core, lay.relays, lay.targets,
               lay.mirrors, lay.starts, [lay.bypass], [lay.outlet]))
    res = lay.reservoir()
    res_side, res_off_bypass = side(res), side(res[res != lay.bypass])
    idx = np.arange(k)
    before = idx[:, None] < idx[None, :]     # row i beats col j iff i < j
    off_diag = idx[:, None] != idx[None, :]  # False marks a track arc or a matched pair
    off_starts = np.flatnonzero(~_mask(n, lay.starts, lay.targets))
    off_starts_side = side(off_starts)
    ladder = _layered(rungs[1:-1])

    def one_arc(ids):
        return [(side(ids[rows]), side(ids[cols]), None) for rows, cols in _upper_bands(ids.size)]

    return {
        "rung_order": ladder[:l],
        "ladder_descent": ladder[l:],
        # the ladder beats the mesh, and the mesh is a tournament
        "ladder_over_mesh": [(side(lay.ladder()), side(lay.mesh()), True),
                             *one_arc(lay.mesh())],
        "tail_block": [(tails, tails, before)]
        + [(tails, steps[t], off_diag if t == l else True) for t in range(1, l + 1)]
        + [(steps[t], heads, off_diag if t == 1 else True) for t in range(1, l + 1)]
        + [(tails, heads, True)],
        "grid_over_reservoir": [(interiors, core, True), (tails, core, True)],
        "tail_relay_split": [(tails, relays, ~before)],
        "relay_target_split": [(relays, targets, ~before)],
        "relay_mirror_split": [(relays, mirrors, before)],
        "bypass_feed": [(bypass, targets, True), (bypass, mirrors, True)],
        # targets beat mirrors; targets and mirrors beat the grid and the
        # reservoir minus the bypass; relays beat interiors and the reservoir
        "tier_dominance": [(targets, mirrors, True)]
        + [(tier, part, True) for tier in (targets, mirrors)
           for part in (grid, res_off_bypass)]
        + [(relays, interiors, True), (relays, res_side, True)],
        "start_reach": [(side(lay.starts_front()), off_starts_side,
                         _mask(n, lay.mesh())[off_starts]),
                        (side(lay.starts_back()), off_starts_side,
                         _mask(n, lay.ladder())[off_starts]),
                        *one_arc(lay.starts)],
        "start_target": [(starts, targets, off_diag)],
        "outlet": [(res_side, outlet, True),
                   (outlet, side(np.flatnonzero(~_mask(n, res, lay.outlet))), True)],
        "tier_orders": [(tier, tier, before) for tier in
                        (relays, targets, side(lay.mirrors[::-1]))],
        # no arc from a ladder step j to a step t >= j + 2, heads and tails
        # included
        "no_forward_jump": [(rungs[j], rungs[t], False)
                            for j in range(l + 2) for t in range(j + 2, l + 2)],
    }


def _write(adj: np.ndarray, rows: _Side, cols: _Side, want) -> None:
    """Put in exactly the arcs that :func:`_orientation_witness` asks of a block.

    A scalar ``want`` True writes only the arcs rows->cols, False only
    cols->rows.  A matrix ``want`` writes its reverse block first, then the
    block itself, so a block of a role with itself ends as ``want`` says,
    with no loops.
    """
    r, c = rows.index, cols.index
    if np.ndim(want) == 0:
        adj[_block_index(r, c) if want else _block_index(c, r)] = True
        return
    want = np.broadcast_to(want, (rows.ids.size, cols.ids.size))
    adj[_block_index(c, r)] = ~want.T
    adj[_block_index(r, c)] = want


class _Side(NamedTuple):
    """One side of an orientation block: its ids and how to index them."""

    ids: np.ndarray              # int64 vertex ids, in block order
    index: slice | np.ndarray    # a basic slice over ids, or ids itself


def _side(ids, n: int) -> _Side:
    """``ids`` with a basic slice that visits them, if they form one.

    They do if they are an arithmetic progression in 0..n-1.  Indexing by
    the slice reads a view where the array would gather a copy.  Any other
    ``ids`` (empty, repeated or out of range) index as themselves.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return _Side(ids, ids)
    first, last = int(ids[0]), int(ids[-1])
    step = int(ids[1]) - first if ids.size > 1 else 1
    # a progression lies in range iff both of its ends do
    if step == 0 or last != first + step * (ids.size - 1) \
            or not (0 <= first < n and 0 <= last < n) \
            or (ids[1:] - ids[:-1] != step).any():
        return _Side(ids, ids)
    stop = last + step
    return _Side(ids, slice(first, stop if stop >= 0 else None, step))


def _block_index(rows: slice | np.ndarray, cols: slice | np.ndarray) -> tuple:
    """Index of the block ``rows`` x ``cols``, each a :attr:`_Side.index`.

    A block of two slices is a view; any other block is gathered once, and
    never through a copy of whole rows.
    """
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols)


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
    witness: RuleWitness | None  # the first bad pair, if any

    @property
    def passed(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class ConstructionReport:
    checks: tuple[RuleCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[RuleCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def by_name(self, name: str) -> RuleCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_construction_rules(d: Digraph, layout: CounterexampleLayout
                              ) -> ConstructionReport:
    """Re-check every wiring rule from the layout; witness arcs on failure.

    Each rule, apart from ``tournament``, ``track_paths`` and
    ``reservoir_regular``, is a list of :func:`_wiring` blocks
    ``(rows, cols, want)`` read by :func:`_orientation_witness`; the rule's
    witness is the first bad pair of its first failing block.  The
    ``tournament`` rule is read first, from the digraph's packed rows and
    columns as :func:`~semilink.digraph.is_tournament` counts them, and only
    the first row whose count misses is searched for its first bad pair.
    The reservoir's degrees are bit counts of its packed rows and columns.
    When the tournament rule passes and no vertex holds two roles, every
    other block is read one-sided: adj[v, u] is the complement of adj[u, v],
    so a block's orientation is its rows->cols arcs, a block that asks only
    for a tournament passes unread, and the reservoir is regular once its
    out-degrees are equal.  Verdicts and witnesses are those of the
    two-sided reads.

    The packing is built on the first check of a digraph and kept with it
    (0.25 n^2 bytes); a digraph from :meth:`~semilink.digraph.Digraph.with_flipped_arc`
    inherits its parent's.
    """
    if d.n != layout.n:
        raise ValueError("layout does not match the digraph")
    adj = d.adjacency
    track = layout.track
    found = {"tournament": _tournament_witness(d)}
    tournament = found["tournament"] is None and _roles_distinct(layout)
    found.update((name, _rule_witness(adj, rule, tournament))
                 for name, rule in _wiring(layout).items())

    missing = ~adj[track[:, :-1], track[:, 1:]]
    found["track_paths"] = None
    if missing.any():
        i, t = map(int, np.argwhere(missing)[0])
        u, v = int(track[i, t]), int(track[i, t + 1])
        found["track_paths"] = RuleWitness(u, v, f"{u}->{v} missing (track arc)")

    # the reservoir's semidegrees: bit counts of its packed rows (out-arcs)
    # and columns (in-arcs) against its packed ids.  An id listed t times is
    # in the first t masks, so it counts t times, as in a gathered block.  A
    # degree is at most res.size, and summing into the smallest type that
    # holds it is the fastest.  In a tournament on m vertices each in-degree
    # is m - 1 minus the out-degree.
    res = layout.reservoir()
    listed = np.bincount(res, minlength=d.n)
    masks = [np.packbits(listed > t) for t in range(listed.max())]
    count = np.min_scalar_type(res.size)

    def degrees(bits: np.ndarray) -> np.ndarray:
        block = bits[res]
        total = 0
        for mask in masks:
            hits = np.bitwise_and(block, mask)
            total = total + np.bitwise_count(hits, out=hits).sum(axis=1, dtype=count)
        return total

    rows, cols = d._packed()
    outs = degrees(rows)
    regular = (outs == outs[0]).all()
    if regular and not tournament:
        ins = degrees(cols)
        regular = (ins == ins[0]).all()
    found["reservoir_regular"] = None
    if not regular:
        v = int(res[int(np.argmax(outs != outs[0]))])
        found["reservoir_regular"] = RuleWitness(
            v, v, "reservoir must induce a regular tournament")

    return ConstructionReport(tuple(RuleCheck(name, found[name])
                                    for name in CORE_RULES + EXTRA_CHECKS))


def _tournament_witness(d: Digraph) -> RuleWitness | None:
    """The row-major first pair of the whole instance without exactly one arc.

    Its row u is the first that :func:`~semilink.digraph._first_bad_row`
    returns, and its column the first vertex v != u whose bit of
    ``rows[u] ^ cols[u]`` is 0.  Since "exactly one arc" is symmetric, no
    earlier row pairs with v, so v > u.
    """
    u = _first_bad_row(d, np.bitwise_xor)
    if u is None:
        return None
    rows, cols = d._packed()
    bad = np.unpackbits(rows[u] ^ cols[u], count=d.n) == 0
    bad[u] = False
    v = int(bad.argmax())
    return RuleWitness(u, v, "exactly one arc")


def _rule_witness(adj: np.ndarray, rule: list[tuple], tournament: bool) -> RuleWitness | None:
    """The witness of the first block of ``rule`` that has a bad pair, if any."""
    return next(filter(None, (_orientation_witness(adj, *block, tournament)
                              for block in rule)), None)


def _roles_distinct(layout: CounterexampleLayout) -> bool:
    """True iff no vertex of ``layout`` holds two roles or one role twice.

    Then no block lists a vertex twice on one side, so every pair of a
    vertex with itself is one that :func:`_orientation_witness` drops.
    """
    roles = (layout.track.ravel(), layout.core, layout.relays, layout.targets,
             layout.mirrors, layout.starts, [layout.outlet])
    return np.count_nonzero(_mask(layout.n, *roles)) == sum(np.size(r) for r in roles)


def _orientation_witness(adj: np.ndarray, rows: _Side, cols: _Side, want,
                         tournament: bool = False) -> RuleWitness | None:
    """The first pair of ``rows`` x ``cols``, row-major, oriented against ``want``.

    ``want[i, j]`` True asks for the arc rows[i]->cols[j] only, False for
    cols[j]->rows[i] only, and ``want=None`` for exactly one of the two
    arcs.  ``want`` broadcasts against the block.  A vertex is never paired
    with itself.  ``tournament`` says that every other pair of the block has
    exactly one of its two arcs: then ``want=None`` holds unread, and only
    the arcs rows->cols are read, so a passing block costs one read of its
    indices.  The ids behind them are looked at only once a bad pair is
    found.
    """
    if tournament and want is None:
        return None
    r, c = rows.index, cols.index
    if want is None:
        # the mirror leads, so that in a band of the upper triangle the
        # strided operand walks only the band's own rows, which stay in cache
        bad = (adj[_block_index(c, r)] == adj[_block_index(r, c)].T).T
    else:
        bad = adj[_block_index(r, c)] != want
        if not tournament:
            bad |= adj[_block_index(c, r)].T == want
    if not bad.any():
        return None
    # most blocks pair two disjoint roles; a vertex's pair with itself is
    # dropped only once some bad pair is found
    rows, cols = rows.ids, cols.ids
    shared = np.zeros(adj.shape[0], dtype=bool)
    shared[rows] = True
    if shared[cols].any():
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


def verify_property_two(d: Digraph, layout: CounterexampleLayout) -> PathSystem:
    """Exhibit k+1 disjoint paths from the reservoir into targets + outlet.

    The paths live outside the grid, the relays and the bypass: k two-arc
    paths route through the starts into shifted targets, one arc reaches the
    outlet.  Disjointness and arc validity are enforced by construction of
    the returned system.
    """
    k = layout.k
    pool = layout.core[layout.core != layout.bypass][:k + 1].tolist()
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

    @property
    def min_observed(self) -> int:
        return min(self.values)

    @property
    def all_ok(self) -> bool:
        return self.min_observed >= self.target

    def failures(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((u, v, val) for (u, v), val in zip(self.pairs, self.values)
                     if val < self.target)


def sampled_connectivity_check(d: Digraph, target: int, pairs: int, seed: int,
                               threads: int = 1) -> SampledConnectivity:
    """Exact minimum vertex cuts for randomly sampled ordered pairs.

    Every sampled pair's cut value is computed exactly, uncapped, by the
    phase-based value query (one layered search and one blocking flow per
    phase, no paths built; the two- and three-arc paths go in first, one
    step each), and compared against ``target``.
    """
    # Serial only: a thread pool gained nothing, since the BFS holds the GIL.
    if threads != 1:
        raise ValueError("threads must be 1")
    if target < 1:
        raise ValueError("target must be >= 1")
    if _vertex_id(pairs, "pairs", None) < 1:
        raise ValueError("pairs must be >= 1")
    sampled = list(_sample_pairs(d.n, pairs, seed))
    values = [_cut_value(d, u, v) for u, v in sampled]
    return SampledConnectivity(target, tuple(sampled), tuple(values))
