import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilink import generators
from semilink.digraph import _MAX_ORDER, is_semicomplete, is_tournament
from semilink.flows import vertex_connectivity
from semilink.generators import (_KINDS, bipartite_tournament,
                                 near_regular_tournament, random_semicomplete,
                                 random_tournament, rotational_tournament,
                                 transitive_tournament)


class TestTransitive:
    def test_identity_order(self):
        d = transitive_tournament([0, 1, 2])
        assert np.argwhere(d.adjacency).tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_reversed_order(self):
        d = transitive_tournament([2, 1, 0])
        assert np.argwhere(d.adjacency).tolist() == [[1, 0], [2, 0], [2, 1]]

    def test_single_vertex(self):
        assert transitive_tournament(1).arc_count == 0

    def test_numpy_integer_order(self):
        # np.int64(3) used to be iterated as a vertex order and raise TypeError
        assert transitive_tournament(np.int64(3)) == transitive_tournament(3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            transitive_tournament([0, 0, 1])

    def test_negative_order_rejected(self):
        # range(-1) is empty, so an unchecked order would build Digraph(n=0)
        with pytest.raises(ValueError, match="negative"):
            transitive_tournament(-1)

    def test_acyclic(self):
        d = transitive_tournament(7)
        # arcs strictly increase along the order, so no cycle can close
        assert all(u < v for u, v in np.argwhere(d.adjacency))


class TestRotational:
    def test_three_is_directed_cycle(self):
        arcs = np.argwhere(rotational_tournament(3).adjacency).tolist()
        assert arcs == [[0, 1], [1, 2], [2, 0]]

    def test_regularity(self):
        for n in (5, 9, 15):
            d = rotational_tournament(n)
            assert is_tournament(d)
            degs = d.out_degrees()
            assert (degs == (n - 1) // 2).all()
            assert (d.in_degrees() == (n - 1) // 2).all()

    def test_connectivity_floor_and_exact_value(self):
        d = rotational_tournament(9)
        kappa = vertex_connectivity(d)
        assert kappa >= 3  # n // 3 floor for the regular family
        assert kappa == 4  # frozen from the exact computation

    @pytest.mark.parametrize("n", [*range(3, 102, 2), 1427])
    def test_matches_modular_formula(self, n):
        diff = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        expected = (diff >= 1) & (diff <= (n - 1) // 2)
        adj = rotational_tournament(n).adjacency
        assert adj.dtype == bool and adj.flags.c_contiguous
        assert (adj == expected).all()

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            rotational_tournament(8)
        with pytest.raises(ValueError):
            rotational_tournament(1)


class TestRandomFamilies:
    def test_same_seed_is_identical(self):
        assert random_tournament(20, seed=7) == random_tournament(20, seed=7)
        assert random_semicomplete(15, 0.4, seed=3) == \
            random_semicomplete(15, 0.4, seed=3)

    @pytest.mark.parametrize("build, digest", [
        (lambda: random_tournament(20, seed=7),
         "b4c2a7595d9dca2d879f2686d13c4933c1f789109c6fdcb6c5a4cd623eb408ac"),
        (lambda: random_semicomplete(15, 0.4, seed=3),
         "547714307f756c1b05c5068bf305da58614afba5b2c928c1758733d59bc01424"),
    ], ids=["random_tournament", "random_semicomplete"])
    def test_seeded_orientation_pinned(self, build, digest):
        adj = build().adjacency
        assert hashlib.sha256(adj.tobytes()).hexdigest() == digest

    def test_different_seed_differs(self):
        assert random_tournament(20, seed=7) != random_tournament(20, seed=8)

    def test_zero_bidirection_gives_tournament(self):
        assert is_tournament(random_semicomplete(12, 0.0, seed=1))

    def test_full_bidirection_gives_complete(self):
        d = random_semicomplete(8, 1.0, seed=1)
        expected = ~np.eye(8, dtype=bool)
        assert (d.adjacency == expected).all()

    def test_semicompleteness(self):
        for seed in range(5):
            assert is_semicomplete(random_semicomplete(25, 0.3, seed=seed))

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            random_semicomplete(5, 1.5, seed=0)


class TestBipartite:
    def test_single_pair(self):
        d = bipartite_tournament(1, 1, seed=0)
        assert d.arc_count == 1

    def test_two_by_two(self):
        d = bipartite_tournament(2, 2, seed=1)
        assert d.arc_count == 4
        assert not d.adjacency[:2, :2].any()
        assert not d.adjacency[2:, 2:].any()

    def test_not_semicomplete(self):
        assert not is_semicomplete(bipartite_tournament(2, 2, seed=2))

    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            bipartite_tournament(0, 3, seed=0)


def sequential_near_regular(n, seed):
    """The triangle-reversal loop one attempt at a time, as first written."""
    if n % 2 == 1:
        adj = rotational_tournament(n).adjacency.copy()
    else:
        diff = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        adj = (diff >= 1) & (diff < n // 2)
        half = diff == n // 2
        ids = np.arange(n)
        adj |= half & (ids[:, None] < ids[None, :])
        np.fill_diagonal(adj, False)
    rng = np.random.Generator(np.random.PCG64(seed))
    attempts = int(2.7 * n * (n - 1) / 2)
    triples = rng.integers(0, n, size=(attempts, 3))
    for a, b, c in triples:
        if a == b or b == c or a == c:
            continue
        if adj[a, b] and adj[b, c] and adj[c, a]:
            adj[a, b] = adj[b, c] = adj[c, a] = False
            adj[b, a] = adj[c, b] = adj[a, c] = True
    return adj


class TestNearRegular:
    def test_odd_order_is_regular(self):
        d = near_regular_tournament(31, seed=4)
        assert is_tournament(d)
        assert (d.out_degrees() == 15).all()

    def test_even_order_degrees_differ_by_one(self):
        d = near_regular_tournament(30, seed=4)
        assert is_tournament(d)
        degs = d.out_degrees()
        assert degs.min() == 14 and degs.max() == 15

    def test_deterministic(self):
        assert near_regular_tournament(21, seed=5) == \
            near_regular_tournament(21, seed=5)

    @pytest.mark.parametrize("n, seed, digest", [
        (21, 5, "0d1d6e922863b851bf5194782d99ec6524bc300b203b5c55bfc9ef87d80726a8"),
        (30, 4, "34661863996c3a234eeea5d06fcb9d693dc41975470fd68423fa43339ec559e9"),
        (101, 7, "8737870ac57b8c9694686a5b974c3344f8e40f7e9584585b4b128ab96f0add91"),
        (251, 1, "92666390a3c7e4dc9fa7856438b4b7635d024eda056f120197f8ec6931d2cf97"),
        (400, 1, "5259276e893b941185dbe86fca974c7f0de56030723703c705ea890b27d92dc9"),
        (3, 1, "36230fde0ec149e0b7259f7715ff5f786075fdbddc33b7ccb168b7466424a403"),
        (4, 2, "eece5ec6cefe6c9c300435b507d9be745b8ee205f1f514e807f7f7ec306d1496"),
        (60, 3, "5cae36351ef8e6216eb9cbcbe89e144eb5c738757f16ce17b6d721f1da95ca1b"),
        (87, 1, "b111b0a655dc29821041bb22803faf3b240e8994e380465643cb5c6f57bd559e"),
        (250, 2, "c4b1e1fd9149942c08dde1af9d8489098b4738443a668b108ed1f1bc48ca8390"),
        (1000, 1, "aed203e64a2f1afae3d1e227e4a0cd2e490427fe0e5a08901baea4e68857e529"),
        # the k=10 linker instance
        (2130, 1, "e5fb3ae34ab23075b327fb680045398baad66706a3e7c829606e44bc686d1f06"),
    ])
    def test_seeded_tournaments_pinned(self, n, seed, digest):
        adj = near_regular_tournament(n, seed=seed).adjacency
        assert hashlib.sha256(adj.tobytes()).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 48), seed=st.integers(0, 2 ** 64 - 1))
    def test_matches_sequential_reversals(self, n, seed):
        # at these orders almost every run of attempts is cut short by a
        # shared pair, so the cut rule is exercised as much as the batches
        adj = near_regular_tournament(n, seed=seed).adjacency
        assert (adj == sequential_near_regular(n, seed)).all()

    @pytest.mark.parametrize("n, bound", [(251, 12), (400, 12), (1000, 8), (2130, 8)])
    def test_peak_allocation(self, n, bound):
        # The adjacency (n^2 bytes) and the int32 pair stamps (4 n^2) are
        # the only order-n^2 arrays; each chunk's index arrays take a few
        # hundred n bytes, which lifts the bound at the small orders.  One
        # (attempts, 3) draw peaked at 33.3 n^2 (n=251), and with the even
        # orders' int64 offset matrix at 42.4 n^2 (n=400, 1000, 2130).
        near_regular_tournament(5, seed=1)  # one-time imports stay untraced
        tracemalloc.start()
        try:
            near_regular_tournament(n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * n, peak / n ** 2

    def test_shuffle_changes_structure(self):
        from semilink.generators import rotational_tournament
        assert near_regular_tournament(21, seed=5) != rotational_tournament(21)


class TestGenSpec:
    # A ``gen`` request is its parsed arguments; ``_KINDS`` maps a kind to
    # the builder that reads them.
    def test_dispatch(self):
        def spec(**kw):
            return SimpleNamespace(**{"n": 0, "u_size": 0, "w_size": 0,
                                      "p_bidirected": 0.0, "seed": 0, **kw})

        assert _KINDS["rotational"](spec(n=9)) == rotational_tournament(9)
        assert _KINDS["transitive"](spec(n=4)) == transitive_tournament(4)
        d = _KINDS["bipartite_tournament"](spec(u_size=2, w_size=3, seed=1))
        assert d == bipartite_tournament(2, 3, seed=1) and d.n == 5
        assert _KINDS["random_semicomplete"](spec(n=7, p_bidirected=0.5, seed=2)) \
            == random_semicomplete(7, 0.5, seed=2)

    def test_kinds_in_order(self):
        assert tuple(_KINDS) == ("transitive", "rotational", "random_tournament",
                                 "random_semicomplete", "bipartite_tournament",
                                 "near_regular")


@pytest.fixture
def no_allocation(monkeypatch):
    """Fail every array constructor and random stream the generators use."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the order check")

    for name in ("zeros", "empty", "ones", "arange"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(generators, "_rng", refuse)


@pytest.mark.parametrize("build", [
    lambda n: transitive_tournament(n),
    lambda n: rotational_tournament(n),
    lambda n: random_tournament(n, seed=0),
    lambda n: random_semicomplete(n, 0.5, seed=0),
    lambda n: bipartite_tournament(1, n - 1, seed=0),
    lambda n: near_regular_tournament(n, seed=0),
], ids=list(_KINDS))
def test_oversized_order_rejected_before_allocation(build, no_allocation):
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        build(_MAX_ORDER + 1)
