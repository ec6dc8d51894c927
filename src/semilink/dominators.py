"""c-goodness scores and nearly-dominating vertex machinery.

A vertex v is c-out-good for u when u beats v directly or at least c
internally disjoint two-arc paths run from u to v (distinct middle
vertices): exactly when its ``goodness_scores`` entry is at least
min(c, n).  A vertex is nearly out-dominating when, for every c, all but at
most 2c vertices are c-out-good for it; every semicomplete digraph has one,
and a maximum out-degree vertex of any spanning tournament qualifies.

The two-path count, the profiles and the finders accept an optional
``within`` vertex pool restricting the computation to the induced subgraph
on that pool while keeping original vertex ids.  ``goodness_scores`` takes
the pool as a ready boolean mask instead; the set check always works in the
whole digraph.

"Out" scores gather the rows of the centre's out-neighbours.  "In" scores
would gather columns, each a strided read, so they AND the adjacency's
bit-packed rows (``np.packbits(a, axis=1)``, packed once by each caller
that scores many centres) with the packed pool in-neighbours of the centre
and count the bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .digraph import Digraph, _vertex_id, _vertex_ids


def _pool_mask(d: Digraph, within: Iterable[int] | None) -> np.ndarray:
    if within is None:
        return np.ones(d.n, dtype=bool)
    mask = np.zeros(d.n, dtype=bool)
    mask[_vertex_ids(within, "pool vertex", d.n)] = True
    return mask


def count_two_paths(d: Digraph, src: int, dst: int,
                    within: Iterable[int] | None = None) -> int:
    """Number of internally disjoint length-2 paths src -> m -> dst.

    Equals the number of distinct middle vertices, i.e. the size of
    N+(src) & N-(dst) (minus endpoints, which cannot occur).
    """
    d._check_vertex(src)
    d._check_vertex(dst)
    if src == dst:
        raise ValueError("endpoints must differ")
    mask = _pool_mask(d, within)
    a = d.adjacency
    return int(np.count_nonzero(a[src] & a[:, dst] & mask))


def _scores(lines: np.ndarray, u: int, pool: np.ndarray, n: int) -> np.ndarray:
    """score[v] = n for an arc u->v of ``lines``, else #{m in pool: u->m->v}."""
    row = lines[u]
    # int32 sums take half the time of int64 ones and cannot overflow here
    return np.where(row, n, lines[row & pool].sum(axis=0, dtype=np.int32))


def _in_scores(a: np.ndarray, rows: np.ndarray, u: int, pool: np.ndarray) -> np.ndarray:
    """``_scores(a.T, u, pool, n)`` read from ``rows = np.packbits(a, axis=1)``.

    score[v] = n for an arc v->u, else #{m in pool: v->m->u}: the set bits
    of row v AND the packed pool in-neighbours of u (the pad bits are zero
    in both).
    """
    col = a[:, u]
    middles = np.bitwise_count(rows & np.packbits(col & pool)).sum(axis=1, dtype=np.int32)
    return np.where(col, a.shape[0], middles)


def goodness_scores(d: Digraph, u: int, direction: str,
                     mask: np.ndarray) -> np.ndarray:
    """Per-vertex goodness threshold: v is c-good iff score[v] >= c.

    Direct arcs count as infinitely good (score n); the score of u itself
    and of vertices outside the pool is -1 so they never count as bad.
    ``u`` must be a vertex, ``direction`` "out" or "in" and ``mask`` a
    boolean array of length n (ValueError).
    """
    d._check_vertex(u)
    if direction not in ("out", "in"):
        raise ValueError(f"direction must be 'out' or 'in', not {direction!r}")
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (d.n,)):
        raise ValueError("mask must be a boolean array of length n")
    a = d.adjacency
    if direction == "out":
        raw = _scores(a, u, mask, d.n)
    else:
        raw = _in_scores(a, np.packbits(a, axis=1), u, mask)
    scores = np.where(mask, raw, -1)
    scores[u] = -1
    return scores


def _bad_counts(scores: np.ndarray, n: int, c_max: int | None = None) -> np.ndarray:
    """Entry c-1 counts the candidates that are not c-good, for c = 1..c_max.

    ``scores`` are the candidates' goodness scores in an order-n digraph.  A
    direct arc scores n, above any two-arc count, and is good for every c.
    Without c_max the count stops at the vacuity bound, the smallest c with
    2c above the number of candidates, where no c can break the rule.
    """
    if c_max is None:
        c_max = scores.size // 2 + 1
    thresholds = np.minimum(np.arange(1, c_max + 1), n)
    return np.searchsorted(np.sort(scores), thresholds, side="left")


def _nearly_dominates(bad_counts, slack: int = 0) -> bool:
    """The nearly-dominating rule: bad(c) <= 2c - slack for every counted c."""
    bad = np.asarray(bad_counts)
    return not (bad > 2 * np.arange(1, bad.size + 1) - slack).any()


@dataclass(frozen=True)
class DominationProfile:
    """Bad-vertex counts per c for one candidate dominating vertex."""

    vertex: int
    pool_size: int  # candidates other than the vertex itself
    bad_counts: tuple[int, ...]  # bad_counts[c-1] = #vertices not c-good

    def is_nearly_dominating(self) -> bool:
        return _nearly_dominates(self.bad_counts)

    def satisfies_strict_bound(self) -> bool:
        """The constructive guarantee: at most 2c - 1 bad vertices per c."""
        return _nearly_dominates(self.bad_counts, slack=1)


def _profile(d: Digraph, u: int, direction: str, c_max: int | None,
             within: Iterable[int] | None) -> DominationProfile:
    d._check_vertex(u)
    mask = _pool_mask(d, within)
    if not mask[u]:
        raise ValueError("vertex must belong to the pool")
    c_max = d.n if c_max is None else _vertex_id(c_max, "c_max", None)
    if c_max < 1:
        raise ValueError("c_max must be >= 1")
    scores = goodness_scores(d, u, direction, mask)
    candidates = scores[scores >= 0]
    bad = tuple(_bad_counts(candidates, d.n, c_max).tolist())
    return DominationProfile(u, candidates.size, bad)


def nearly_out_dominating_profile(d: Digraph, u: int, c_max: int | None = None,
                                  within: Iterable[int] | None = None) -> DominationProfile:
    return _profile(d, u, "out", c_max, within)


def nearly_in_dominating_profile(d: Digraph, u: int, c_max: int | None = None,
                                 within: Iterable[int] | None = None) -> DominationProfile:
    return _profile(d, u, "in", c_max, within)


def _picks(d: Digraph, direction: str, within: Iterable[int] | None,
           count: int) -> list[int]:
    """``count`` vertices, each nearly dominating the pool left by the earlier ones.

    Each pick is a maximum out-degree vertex of a spanning tournament of
    what is left (lowest id on ties, and each bidirected pair keeps its arc
    from the lower id), and the defining property is asserted for it.  The
    pool block is gathered once; for "in" it is transposed once, so that its
    "out" counts are the "in" counts of d and the choice matches
    find_nearly_out_dominating(reverse(d)).  Semicompleteness is checked
    once, since it passes to every sub-pool, and each removal updates the
    degrees by one column.  Raises ValueError when some pair of the pool has
    no arc or the pool has fewer than ``count`` vertices.
    """
    ids = np.flatnonzero(_pool_mask(d, within))
    p = ids.size
    if p < count:
        raise ValueError("empty pool" if p == 0 else "pool smaller than the number of picks")
    block = d.adjacency[ids][:, ids]
    if direction == "in":
        block = np.ascontiguousarray(block.T)
    degs = block.sum(axis=1, dtype=np.int32)
    both = block & block.T
    paired = both.sum(axis=1, dtype=np.int32)
    if (degs + block.sum(axis=0, dtype=np.int32) - paired != p - 1).any():
        raise ValueError("digraph is not semicomplete on the pool")
    if paired.any():
        # a vertex loses its arcs to lower ids; row chunks keep at most two
        # pool x pool blocks alive at once
        pos = np.arange(p)
        step = max(1, (1 << 16) // p)
        for r in range(0, p, step):
            both[r:r + step] &= pos < pos[r:r + step, None]
        degs -= both.sum(axis=1, dtype=np.int32)
    del both
    alive = np.ones(p, dtype=bool)
    picks: list[int] = []
    while True:
        i = int(np.argmax(degs))  # argmax takes the lowest id on ties
        scores = _scores(block, i, alive, d.n)
        alive[i] = False
        picks.append(int(ids[i]))
        if not _nearly_dominates(_bad_counts(scores[alive], d.n)):
            raise AssertionError(
                f"max-degree vertex {picks[-1]} fails the nearly-{direction}-dominating check")
        if len(picks) == count:
            return picks
        # i leaves the pool: each vertex loses its arc to i, except a higher
        # id whose bidirected pair with i kept i's arc.  Updates never raise
        # a degree, so -1 keeps i below every live vertex.
        degs -= block[:, i]
        degs[i + 1:] += block[i + 1:, i] & block[i, i + 1:]
        degs[i] = -1


def find_nearly_out_dominating(d: Digraph, within: Iterable[int] | None = None) -> int:
    """A nearly out-dominating vertex of a semicomplete digraph.

    Picks a maximum out-degree vertex of a spanning tournament (lowest id on
    ties, and each bidirected pair keeps its arc from the lower id) and
    asserts the defining property, which that choice always satisfies.
    """
    return _picks(d, "out", within, 1)[0]


def find_nearly_in_dominating(d: Digraph, within: Iterable[int] | None = None) -> int:
    return _picks(d, "in", within, 1)[0]


def is_nearly_in_dominating_set(d: Digraph, members: Iterable[int]) -> bool:
    """Set-level check: every member is nearly in-dominated by the complement.

    For each member u and every c, at most 2c of the non-member vertices may
    fail to be c-in-good for u (goodness measured in the whole digraph).
    """
    ids = sorted(set(_vertex_ids(members, "vertex", d.n)))
    if not ids:
        raise ValueError("the set must be non-empty")
    outside = np.ones(d.n, dtype=bool)
    outside[ids] = False
    if not outside.any():
        return True
    a = d.adjacency
    rows = np.packbits(a, axis=1)
    full = np.ones(d.n, dtype=bool)
    scores = (_in_scores(a, rows, u, full)[outside] for u in ids)
    return all(_nearly_dominates(_bad_counts(s, d.n)) for s in scores)
