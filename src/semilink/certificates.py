"""Independent verification of linkage certificates.

Deliberately self-contained: the checks below read the raw adjacency matrix
and share no code with the construction that produced the certificate.
"""

from __future__ import annotations

from typing import Sequence

from .digraph import Digraph


class CertificateError(Exception):
    pass


def verify_linkage_certificate(d: Digraph, pairs: Sequence[tuple[int, int]],
                               paths: Sequence[Sequence[int]]) -> None:
    """Raise CertificateError unless ``paths`` link the pairs disjointly.

    Path i must run from pairs[i][0] to pairs[i][1], every consecutive pair
    of vertices must be an arc, and no vertex may occur twice anywhere.
    """
    if len(paths) != len(pairs):
        raise CertificateError(f"expected {len(pairs)} paths, got {len(paths)}")
    seen: dict[int, int] = {}
    for i, ((x, y), path) in enumerate(zip(pairs, paths)):
        if len(path) < 2:
            raise CertificateError(f"path {i} is too short: {path}")
        if path[0] != x or path[-1] != y:
            raise CertificateError(
                f"path {i} runs {path[0]}->{path[-1]}, expected {x}->{y}")
        for v in path:
            if type(v) is bool or not hasattr(v, "__index__") or not 0 <= v < d.n:
                raise CertificateError(f"path {i} contains invalid vertex {v!r}")
            if v in seen:
                raise CertificateError(
                    f"vertex {v} used by both path {seen[v]} and path {i}")
            seen[v] = i
        for a, b in zip(path, path[1:]):
            if not d.adjacency[a, b]:
                raise CertificateError(f"path {i} uses missing arc ({a}, {b})")
