"""Reference answers and per-operation checks, independent of the code under test.

Checks read raw adjacency matrices with numpy and plain Python.  Where an
exact value is needed they call the plain, uncapped ``local_cut`` and accept
its answer only after checking its certificate directly: the paths give the
lower bound, the separator the upper bound.

Run as a script to print the reference verdicts and values for one seed:

    python3 perfbench/reference.py --workload connectivity-decide --seed 1
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """An operation returned a wrong verdict, value or certificate."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_paths(adj: np.ndarray, paths, starts, ends, *, allow_trivial=False) -> None:
    """Each path runs start->end along arcs of ``adj``; no vertex is shared."""
    require(len(paths) == len(starts) == len(ends),
            f"{len(paths)} paths for {len(starts)} pairs")
    seen: set[int] = set()
    for path, x, y in zip(paths, starts, ends):
        path = [int(v) for v in path]
        require(len(path) >= (1 if allow_trivial else 2), f"path {path} too short")
        require(path[0] == x and path[-1] == y, f"path {path} does not run {x}->{y}")
        require(seen.isdisjoint(path) and len(set(path)) == len(path),
                f"path {path} reuses a vertex")
        seen.update(path)
        for a, b in zip(path, path[1:]):
            require(bool(adj[a, b]), f"path {path} uses missing arc ({a}, {b})")


def reaches(adj: np.ndarray, u: int, v: int, removed) -> bool:
    """Breadth-first search: is there a u->v path avoiding ``removed``?"""
    alive = np.ones(adj.shape[0], dtype=bool)
    alive[list(removed)] = False
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[u] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & alive & ~seen
        if frontier[v]:
            return True
        seen |= frontier
    return False


def check_cut_certificate(adj: np.ndarray, u: int, v: int, cut) -> int:
    """Verify an uncapped LocalCut for (u, v) and return its value.

    ``value`` internally disjoint u->v paths prove the lower bound; the
    separator S, with u->v unreachable in D - S once the direct arc is set
    aside, proves the upper bound |S| + [direct arc].
    """
    direct = bool(adj[u, v])
    require(cut.direct_arc == direct, f"direct-arc flag wrong for ({u}, {v})")
    require(cut.separator is not None, f"no separator for uncapped ({u}, {v})")
    sep = set(cut.separator)
    require(u not in sep and v not in sep, "separator contains an endpoint")
    require(len(sep) + direct == cut.value,
            f"|S| + direct = {len(sep) + direct} but value {cut.value}")
    rest = adj.copy()
    rest[u, v] = False
    require(not reaches(rest, u, v, sep), f"D - S still has a {u}->{v} path")
    require(len(cut.paths) == cut.value,
            f"{len(cut.paths)} paths for value {cut.value}")
    inner: set[int] = set()
    for p in cut.paths:
        verts = [int(w) for w in p.vertices]
        require(verts[0] == u and verts[-1] == v, f"path {verts} is not {u}->{v}")
        require(inner.isdisjoint(verts[1:-1]) and len(set(verts)) == len(verts),
                f"path {verts} is not internally disjoint")
        inner.update(verts[1:-1])
        for a, b in zip(verts, verts[1:]):
            require(bool(adj[a, b]), f"path {verts} uses missing arc ({a}, {b})")
    return int(cut.value)


def min_semidegree(adj: np.ndarray) -> int:
    return int(min(adj.sum(axis=0).min(), adj.sum(axis=1).min()))


def k_connected_reference(d, k: int, local_cut) -> bool:
    """Exact ``is_k_connected`` verdict from independent evidence.

    A semidegree below k is a separator.  Otherwise an ordered pair u, v
    with an arc u->v cannot be separated, and one with at least k two-arc
    paths u->m->v (distinct middles) needs k vertices removed.  Pairs the
    screen leaves open are settled by the plain kernel with its certificate
    checked.
    """
    adj = d.adjacency
    n = adj.shape[0]
    if n < k + 1:
        return False
    if min_semidegree(adj) < k:
        return False
    a = adj.astype(np.int32)
    open_pairs = np.argwhere(~adj & ~np.eye(n, dtype=bool) & (a @ a < k))
    for u, v in open_pairs:
        u, v = int(u), int(v)
        if check_cut_certificate(adj, u, v, local_cut(d, u, v)) < k:
            return False
    return True


def circulant_connectivity(d, local_cut) -> int:
    """Exact connectivity of a rotation-invariant digraph.

    Rotation i -> i+1 is an automorphism (checked), so every ordered pair is
    equivalent to one with u = 0 and only n - 1 pairs need a certified cut.
    """
    adj = d.adjacency
    n = adj.shape[0]
    require(bool((np.roll(np.roll(adj, 1, axis=0), 1, axis=1) == adj).all()),
            "digraph is not rotation invariant")
    best = n - 1
    for w in range(1, n):
        if not adj[0, w]:
            best = min(best, check_cut_certificate(adj, 0, w, local_cut(d, 0, w)))
    return best


def strict_domination_ok(adj: np.ndarray, u: int) -> bool:
    """At most 2c - 1 vertices fail to be c-out-good for u, for every c >= 1.

    v is c-out-good for u when u->v is an arc or at least c vertices m have
    u->m->v.
    """
    n = adj.shape[0]
    two = adj[u].astype(np.int64) @ adj.astype(np.int64)
    others = np.arange(n) != u
    scores = np.where(adj[u], n, two)[others]
    for c in range(1, n + 1):
        if int((scores < c).sum()) > 2 * c - 1:
            return False
    return True


def main(argv=None) -> int:
    import argparse
    import json

    import run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    run.prepare()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.generate(args.seed, smoke=False)
    print(json.dumps(wl.references(inputs), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
