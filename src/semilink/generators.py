"""Constructors for structured and random tournaments.

All generators are pure functions of their parameters.  Randomized variants
draw from numpy's PCG64 stream seeded with the given 64-bit seed, so the same
parameters always produce the same digraph.  Orders above
``digraph._MAX_ORDER`` are rejected before anything is allocated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .digraph import Digraph, _check_order, _vertex_ids


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def transitive_tournament(order: Sequence[int] | int) -> Digraph:
    """Tournament whose arcs follow the given vertex order.

    ``order`` is either a permutation of 0..n-1 or an integer n (identity
    order).  There is an arc from ``order[i]`` to ``order[j]`` iff i < j.
    """
    if isinstance(order, (int, np.integer)):
        _check_order(order)
        perm = range(order)
    else:
        perm = _vertex_ids(order, "vertex", None)
        _check_order(len(perm))
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    adj = rank[:, None] < rank[None, :]
    np.fill_diagonal(adj, False)
    return Digraph(adj, copy=False)


def _circulant(n: int, width: int) -> np.ndarray:
    """Read-only n x n view in which u beats u+1, ..., u+width (mod n).

    Row u is row 0 shifted right by u, so the matrix is read off one
    doubled row as a reversed sliding window.
    """
    row = np.zeros(2 * n, dtype=bool)
    for start in (1, n + 1):
        row[start:start + width] = True
    # window s is row[s:s + n]; row u of the circulant is window n - u
    return sliding_window_view(row, n)[n:0:-1]


def rotational_tournament(n: int) -> Digraph:
    """Circulant tournament: u beats u+1, ..., u+(n-1)/2 (mod n).

    Requires odd n >= 3; the result is regular with all semidegrees
    (n-1)/2.  The matrix is one copy of ``_circulant``'s view.
    """
    _check_order(n)
    if n < 3 or n % 2 == 0:
        raise ValueError("rotational tournament needs odd n >= 3")
    return Digraph(_circulant(n, (n - 1) // 2))


def _random_orientation(rng: np.random.Generator, m: int) -> np.ndarray:
    """An m x m tournament matrix from one (m, m) draw of bits.

    For i < j the bit at (i, j) keeps the arc i->j and a clear bit keeps
    j->i; the bits on and below the diagonal are drawn and ignored.
    """
    ori = rng.integers(0, 2, size=(m, m)).astype(bool)
    return np.triu(ori, 1) | np.tril(~ori.T, -1)


def random_tournament(n: int, seed: int) -> Digraph:
    """Tournament with every pair oriented uniformly at random."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_order(n)
    return Digraph(_random_orientation(_rng(seed), n), copy=False)


def random_semicomplete(n: int, p_bidirected: float, seed: int) -> Digraph:
    """Random tournament where each pair is additionally bidirected w.p. p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p_bidirected <= 1.0:
        raise ValueError("p_bidirected must lie in [0, 1]")
    _check_order(n)
    rng = _rng(seed)
    adj = _random_orientation(rng, n)
    both = np.triu(rng.random(size=(n, n)) < p_bidirected, 1)
    adj |= both | both.T
    return Digraph(adj, copy=False)


def bipartite_tournament(u_size: int, w_size: int, seed: int) -> Digraph:
    """Each cross pair gets exactly one random arc; no arcs within a part."""
    if u_size < 1 or w_size < 1:
        raise ValueError("part sizes must be >= 1")
    n = u_size + w_size
    _check_order(n)
    rng = _rng(seed)
    adj = np.zeros((n, n), dtype=bool)
    toward_w = rng.integers(0, 2, size=(u_size, w_size)).astype(bool)
    adj[:u_size, u_size:] = toward_w
    adj[u_size:, :u_size] = ~toward_w.T
    return Digraph(adj, copy=False)


def near_regular_tournament(n: int, seed: int) -> Digraph:
    """Random tournament whose semidegrees differ by at most one.

    Starts from the circulant score sequence (for even n the tie on the
    n/2 difference goes to the lower id, leaving out-degrees n/2 and
    n/2 - 1) and randomizes with 2.7 n(n-1)/2 attempted directed-triangle
    reversals, which preserve every vertex's score exactly.

    The attempts (a, b, c) are drawn from the seed's stream in chunks of
    8n, which continue the stream exactly as one draw would.  An attempt
    reads and flips only the pairs {a,b}, {b,c} and {c,a}, so a run of
    attempts is tested at once against the state at its start, and its
    reversals applied in one write, as long as no attempt shares a pair
    with an earlier reversal of the run; the next run starts at the first
    one that does.  The result is that of the attempts one at a time.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    _check_order(n)
    adj = _circulant(n, (n - 1) // 2).copy()
    if n % 2 == 0:
        # the circulant leaves out the n/2 difference; the lower id wins it
        low = np.arange(n // 2)
        adj[low, low + n // 2] = True
    cell = adj.reshape(-1)
    rng = _rng(seed)
    attempts = int(2.7 * n * (n - 1) / 2)
    chunk, window = 8 * n, 3 * n // 2
    steps = np.arange(window, dtype=np.int32)
    unset = np.iinfo(np.int32).max
    # first[min(u*n + v, v*n + u)]: the run's earliest reversal of {u, v}
    first = np.full(n * n, unset, dtype=np.int32)
    for start in range(0, attempts, chunk):
        a, b, c = rng.integers(0, n, size=(min(chunk, attempts - start), 3)).T
        keep = (a != b) & (b != c) & (c != a)
        a, b, c = a[keep], b[keep], c[keep]
        # per attempt: the cycle's arcs a->b, b->c, c->a, their reverses
        # and their pairs' stamp slots
        arcs = np.stack([a * n + b, b * n + c, c * n + a])
        backs = np.stack([b * n + a, c * n + b, a * n + c])
        pairs = np.minimum(arcs, backs)
        lo = 0
        while lo < len(a):
            arc, back, pair = (x[:, lo:lo + window] for x in (arcs, backs, pairs))
            at = steps[:len(arc[0])]
            hits = at[cell[arc].all(axis=0)]
            flipped = pair[:, hits]
            # a 2-D index with broadcast values gives wrong minima in
            # numpy 2.4's ufunc.at, so the index is flat and hits repeated
            np.minimum.at(first, flipped.ravel(), np.tile(hits, 3))
            clash = first[pair].min(axis=0) < at
            first[flipped] = unset
            if clash.any():
                at = at[:clash.argmax()]
                hits = hits[hits < len(at)]
            cell[arc[:, hits]] = False
            cell[back[:, hits]] = True
            lo += len(at)
    return Digraph(adj, copy=False)


# Every generator kind, in the order the CLI lists them, with its builder.  A
# builder reads what it needs of the ``gen`` arguments (n, u_size, w_size,
# p_bidirected, seed) as attributes.
_KINDS = {
    "transitive": lambda s: transitive_tournament(s.n),
    "rotational": lambda s: rotational_tournament(s.n),
    "random_tournament": lambda s: random_tournament(s.n, s.seed),
    "random_semicomplete": lambda s: random_semicomplete(s.n, s.p_bidirected, s.seed),
    "bipartite_tournament": lambda s: bipartite_tournament(s.u_size, s.w_size, s.seed),
    "near_regular": lambda s: near_regular_tournament(s.n, s.seed),
}
