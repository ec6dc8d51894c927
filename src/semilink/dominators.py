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

Scores read the digraph's own bit packing (``Digraph._packed``: its rows
and its columns, built once per digraph and kept).  "Out" scores AND every
packed column with the packed pool out-neighbours of the centre and count
the bits, "in" scores every packed row with its packed pool in-neighbours;
no score gathers a strided column or packs the matrix again.

The finders and the linker's 3k picks share ``_picks``.  It gathers the
pool's packed rows and columns into 64-bit bitsets once per call, takes the
degrees, the bidirected pairs and the semicompleteness check from one pass
of bit counts, fixes every pick from the degrees, and then scores all picks
in one census of AND-ed bitsets, each in the pool left at its turn.
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


def _scores(d: Digraph, u: int, direction: str, pool: np.ndarray) -> np.ndarray:
    """score[v] = n for an arc u->v ("out") or v->u ("in"), else the number
    of pool middles m with u->m->v or v->m->u.

    The middles of v are the set bits of v's packed column ("out") or row
    ("in") AND the packed pool out- or in-neighbours of u; the pad bits are
    zero in both.
    """
    a = d.adjacency
    rows, cols = d._packed()
    line, other = (a[u], cols) if direction == "out" else (a[:, u], rows)
    bits = np.bitwise_and(other, np.packbits(line & pool))
    # int32 sums take half the time of int64 ones and cannot overflow here
    middles = np.bitwise_count(bits, out=bits).sum(axis=1, dtype=np.int32)
    return np.where(line, d.n, middles)


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
    scores = np.where(mask, _scores(d, u, direction, mask), -1)
    scores[u] = -1
    return scores


def _bad_counts(scores: np.ndarray, n: int, c_max: int | None = None) -> np.ndarray:
    """Entry c-1 counts the candidates that are not c-good, for c = 1..c_max.

    ``scores`` are the candidates' goodness scores in an order-n digraph,
    integers in 0..n.  A direct arc scores n, above any two-arc count, and
    is good for every c, so a score of n stands for a vertex that never
    counts.  Without c_max the count stops at the vacuity bound, the
    smallest c with 2c above the number of candidates, where no c can break
    the rule.
    """
    if c_max is None:
        c_max = scores.size // 2 + 1
    # upto[j] counts the scores up to j; c is bad for those below min(c, n)
    cap = min(c_max, n)
    upto = np.bincount(np.minimum(scores, cap), minlength=cap + 1).cumsum()
    return upto[:c_max] if c_max <= n else upto[np.minimum(np.arange(c_max), n - 1)]


def _nearly_dominates(bad_counts, slack: int = 0) -> bool:
    """The nearly-dominating rule: bad(c) <= 2c - slack for every counted c."""
    bad = np.asarray(bad_counts)
    return not (bad > np.arange(2 - slack, 2 * bad.size + 1 - slack, 2)).any()


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


# The census holds at most _CENSUS words of AND products at once.
_CENSUS = 1 << 17
# A bitset is a row of np.packbits bytes read as 64-bit words, zero-padded
# to whole words.  _PREFIX[r] has the first r bits of a word set, for
# r = 0..64, and _BIT[r] bit r alone.
_PREFIX = np.packbits(np.tri(65, 64, -1, dtype=bool), axis=1).view(np.uint64)[:, 0]
_BIT = _PREFIX[1:] ^ _PREFIX[:-1]


def _bit_counts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of word-major bitsets, where ``words[j, i]`` is word
    j of row i: the sum runs down the word axis, one long vector add per
    word.  One short sum per row took about ten times as long at n=251."""
    return np.bitwise_count(words).sum(axis=0, dtype=np.int32)


def _picks(d: Digraph, direction: str, within: Iterable[int] | None,
           count: int) -> list[int]:
    """``count`` vertices, each nearly dominating the pool left by the earlier ones.

    Each pick is a maximum out-degree vertex of a spanning tournament of
    what is left (lowest id on ties, and each bidirected pair keeps its arc
    from the lower id), and the defining property is asserted for it.  For
    "in" the degrees are those of the reversed pool, so the choice matches
    find_nearly_out_dominating(reverse(d)).  Raises ValueError when some
    pair of the pool has no arc or the pool has fewer than ``count``
    vertices, and AssertionError naming the first pick that fails.

    The pool's packed rows and columns are gathered once into bitsets.
    One pass of bit counts over them gives the degrees, the bidirected pairs
    and the semicompleteness check, which passes to every sub-pool.  The picks
    follow from the degrees alone, each removal updating them by one
    column.  Then one census reads every pick's scores in the pool left at
    its turn, and the picks are checked in pick order.
    """
    mask = _pool_mask(d, within)
    ids = np.flatnonzero(mask)
    p, n = ids.size, d.n
    if p < count:
        raise ValueError("empty pool" if p == 0 else "pool smaller than the number of picks")
    a = d.adjacency
    rows, cols = d._packed()
    # lines[u, v]: u reaches v by one arc in the chosen direction
    lines, outs, ins = (a, rows, cols) if direction == "out" else (a.T, cols, rows)
    # rows 0..p-1 of packed: the pool vertices' rows of lines, p..2p-1 their
    # columns, 2p..3p-1 their bidirected pairs, and row 3p the pool
    width = rows.shape[1]
    packed = np.zeros((3 * p + 1, -(-n // 64) * 8), dtype=np.uint8)
    packed[:p, :width] = outs[ids]
    packed[p:2 * p, :width] = ins[ids]
    if p < n:
        packed[3 * p, :width] = np.packbits(mask)
    words = np.ascontiguousarray(packed.view(np.uint64).T)  # word-major
    del packed
    if p < n:  # cut the rows to the pool
        words &= words[:, 3 * p:]
    # column i of beats holds the pool vertices that ids[i] reaches by one
    # arc, column i of beaten those that reach it
    beats, beaten, both = words[:, :p], words[:, p:2 * p], words[:, 2 * p:3 * p]
    np.bitwise_and(beats, beaten, out=both)
    counts = _bit_counts(words[:, :3 * p]).reshape(3, p)
    degs, paired = counts[0], counts[2]
    # each vertex has at most p - 1 neighbours in the pool, so all have p - 1
    # exactly when the sums do
    arcs, back, pairs = counts.sum(axis=1).tolist()
    if arcs + back - pairs != p * (p - 1):
        raise ValueError("digraph is not semicomplete on the pool")
    if pairs:
        # a vertex loses its arcs to the lower ids of its bidirected pairs
        below = _PREFIX.take(ids - np.arange(0, 64 * len(words), 64)[:, None], mode="clip")
        degs -= _bit_counts(np.bitwise_and(both, below, out=below))
    picks: list[int] = []
    while len(picks) < count:
        if picks:
            # the last pick i leaves the pool: each vertex loses its arc to
            # i, except a higher id whose bidirected pair with i kept i's
            # arc.  Updates never raise a degree, so -1 keeps i below every
            # live vertex.
            i = picks[-1]
            loses = lines[ids, ids[i]]
            if paired[i]:
                loses[i + 1:] &= ~lines[ids[i], ids[i + 1:]]
            degs -= loses
            degs[i] = -1
        picks.append(int(np.argmax(degs)))  # argmax takes the lowest id on ties
    chosen = ids[picks]
    direct = np.take(beats, picks, axis=1)
    middles = direct
    if count > 1:
        # at its turn a pick's middles avoid the earlier picks
        gone = np.zeros_like(direct)
        gone[chosen >> 6, np.arange(count)] = _BIT[chosen & 63]
        middles = direct & ~np.bitwise_or.accumulate(gone, axis=1)
    scores = np.empty((count, p), dtype=np.int32)
    step = max(1, _CENSUS // beaten.size)
    for t in range(0, count, step):
        scores[t:t + step] = _bit_counts(beaten[:, None, :] & middles[:, t:t + step, None])
    # a direct arc scores n and is good for every c
    scores[lines[chosen] if p == n else lines[chosen][:, ids]] = n
    for t, i in enumerate(picks):
        row = scores[t]
        row[picks[:t + 1]] = n  # no pick up to the turn is a candidate
        if not _nearly_dominates(_bad_counts(row, n, (p - t - 1) // 2 + 1)):
            raise AssertionError(
                f"max-degree vertex {ids[i]} fails the nearly-{direction}-dominating check")
    return chosen.tolist()


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
    full = np.ones(d.n, dtype=bool)
    scores = (_scores(d, u, "in", full)[outside] for u in ids)
    return all(_nearly_dominates(_bad_counts(s, d.n)) for s in scores)
