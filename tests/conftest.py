import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semilink.digraph import Digraph, Path as DiPath


def run_optimized(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -O *args`` on this checkout's sources, where asserts are stripped."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-O", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def random_digraph(n: int, density: float, seed: int) -> Digraph:
    rng = np.random.Generator(np.random.PCG64(seed))
    adj = rng.random((n, n)) < density
    np.fill_diagonal(adj, False)
    return Digraph(adj, copy=False)


def complete_digraph(n: int) -> Digraph:
    return Digraph(~np.eye(n, dtype=bool), copy=False)


def plain_spanning_tournament(d: Digraph, seed: int | None = None) -> Digraph:
    """Keep one arc of every bidirected pair, read off one n x n compare.

    With ``seed=None`` the arc from the lower to the higher id stays, the
    tie-break of the dominator finders; a seed keeps either arc with one
    PCG64 draw per pair, in row-major order of the upper triangle.  Raises
    ValueError unless ``d`` is semicomplete.
    """
    single = d.adjacency.copy()
    if not (single | single.T | np.eye(d.n, dtype=bool)).all():
        raise ValueError("spanning tournament of a digraph that is not semicomplete")
    iu, iv = np.nonzero(np.triu(single & single.T, 1))
    if seed is None:
        single[iv, iu] = False
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        keep_low = rng.integers(0, 2, size=iu.size).astype(bool)
        single[iv[keep_low], iu[keep_low]] = False
        single[iu[~keep_low], iv[~keep_low]] = False
    return Digraph(single, copy=False)


def plain_reduce_to_minimal_path(d: Digraph, p: DiPath) -> DiPath:
    """Replace the earliest shortcut (smallest source index, then longest
    jump) and rescan from the start, until no shortcut remains."""
    verts = list(p.vertices)
    changed = True
    while changed:
        changed = False
        for i in range(len(verts) - 2):
            row = d.adjacency[verts[i]]
            for j in range(len(verts) - 1, i + 1, -1):
                if row[verts[j]]:
                    del verts[i + 1:j]
                    changed = True
                    break
            if changed:
                break
    return DiPath(d, verts)


@pytest.fixture
def no_large_allocation(monkeypatch):
    """Make ``np.zeros`` fail on shapes above a million entries."""
    real_zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= 10**6, f"allocation of shape {shape}"
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)


@pytest.fixture
def bellman_calls(monkeypatch):
    """One entry per cost relaxation (``_SplitFlow._bellman`` call)."""
    import semilink.flows as flows
    calls = []
    real = flows._SplitFlow._bellman

    def counting(self):
        calls.append(None)
        return real(self)

    monkeypatch.setattr(flows._SplitFlow, "_bellman", counting)
    return calls


@pytest.fixture(scope="session")
def reference_counterexample():
    from semilink.counterexample import build_counterexample
    return build_counterexample(42, 1764)
