"""Edge-case and contract tests for the fingerprint index backends."""

import numpy as np
import pytest

from repro.core.atomicio import pack_header, unpack_header
from repro.index import (
    BruteForceIndex,
    LSHIndex,
    backend_names,
    create_index,
    load_index,
    save_index,
)

BACKENDS = ["brute", "lsh"]


def make_index(backend, dim, **kwargs):
    if backend == "lsh":
        kwargs.setdefault("seed", 7)
    return create_index(backend, dim, **kwargs)


@pytest.fixture()
def cloud(rng):
    return rng.normal(size=(200, 12))


class TestRegistry:
    def test_all_backends_registered(self):
        assert backend_names() == sorted(BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            create_index("annoy", 4)

    def test_classes_match_names(self):
        assert isinstance(create_index("brute", 3), BruteForceIndex)
        assert isinstance(create_index("lsh", 3), LSHIndex)


@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeCases:
    def test_empty_index(self, backend):
        index = make_index(backend, 5)
        assert len(index) == 0
        assert index.query(np.zeros(5), k=3) == []
        assert index.query_radius(np.zeros(5), 10.0) == []
        assert index.ids() == []

    def test_single_element(self, backend):
        index = make_index(backend, 3)
        id = index.add(np.array([1.0, 2.0, 3.0]), payload="A")
        hits = index.query(np.array([1.0, 2.0, 3.0]), k=5)
        assert len(hits) == 1
        assert hits[0].id == id
        assert hits[0].distance == 0.0
        assert hits[0].payload == "A"

    def test_duplicate_vectors_tie_break_on_id(self, backend):
        index = make_index(backend, 4)
        vec = np.array([1.0, 1.0, 1.0, 1.0])
        for _ in range(5):
            index.add(vec)
        hits = index.query(vec, k=3)
        # Equal distances resolve to the lowest ids, ascending.
        assert [h.id for h in hits] == [0, 1, 2]
        assert all(h.distance == 0.0 for h in hits)

    def test_dimension_mismatch_rejected(self, backend):
        index = make_index(backend, 4)
        with pytest.raises(ValueError):
            index.add(np.zeros(5))
        index.add(np.zeros(4))
        with pytest.raises(ValueError):
            index.query(np.zeros(3), k=1)
        with pytest.raises(ValueError):
            index.query_radius(np.zeros(5), 1.0)

    def test_non_finite_rejected(self, backend):
        index = make_index(backend, 2)
        with pytest.raises(ValueError):
            index.add(np.array([1.0, np.nan]))

    def test_bad_k_and_radius_rejected(self, backend):
        index = make_index(backend, 2)
        index.add(np.zeros(2))
        with pytest.raises(ValueError):
            index.query(np.zeros(2), k=0)
        with pytest.raises(ValueError):
            index.query_radius(np.zeros(2), -1.0)

    def test_remove_then_query(self, backend, cloud):
        index = make_index(backend, cloud.shape[1])
        index.add_batch(cloud)
        target = cloud[13]
        assert index.query(target, k=1)[0].id == 13
        index.remove(13)
        assert 13 not in index
        assert len(index) == len(cloud) - 1
        hits = index.query(target, k=5)
        assert 13 not in {h.id for h in hits}
        with pytest.raises(KeyError):
            index.remove(13)

    def test_remove_all_then_query(self, backend):
        index = make_index(backend, 2)
        ids = index.add_batch(np.eye(2))
        for id in ids:
            index.remove(id)
        assert len(index) == 0
        assert index.query(np.zeros(2), k=1) == []

    def test_update_moves_vector(self, backend):
        index = make_index(backend, 2)
        a = index.add(np.array([0.0, 0.0]))
        index.add(np.array([5.0, 5.0]))
        index.update(a, np.array([9.0, 9.0]))
        hit = index.query(np.array([9.0, 9.0]), k=1)[0]
        assert hit.id == a
        assert hit.distance == 0.0

    def test_duplicate_id_rejected(self, backend):
        index = make_index(backend, 2)
        index.add(np.zeros(2), id=4)
        with pytest.raises(ValueError):
            index.add(np.ones(2), id=4)

    def test_snapshot_restore_roundtrip(self, backend, cloud, tmp_path):
        index = make_index(backend, cloud.shape[1])
        index.add_batch(cloud, payloads=[f"L{i % 3}" for i in range(len(cloud))])
        index.remove(7)
        path = tmp_path / "index.npz"
        save_index(index, path)
        back = load_index(path)
        assert type(back) is type(index)
        assert len(back) == len(index)
        assert back.ids() == index.ids()
        query = cloud[3] + 0.01
        original = [(h.id, h.distance, h.payload) for h in index.query(query, k=8)]
        restored = [(h.id, h.distance, h.payload) for h in back.query(query, k=8)]
        assert restored == original

    def test_snapshot_restore_empty(self, backend, tmp_path):
        index = make_index(backend, 6)
        path = tmp_path / "empty.npz"
        save_index(index, path)
        back = load_index(path)
        assert len(back) == 0
        assert back.dim == 6
        assert back.query(np.zeros(6), k=1) == []

    def test_radius_query_inclusive(self, backend):
        index = make_index(backend, 1)
        index.add(np.array([0.0]))
        index.add(np.array([1.0]))
        index.add(np.array([3.0]))
        hits = [h.id for h in index.query_radius(np.array([0.0]), 1.0)]
        if backend == "lsh":
            # Approximate: may miss within-radius points, never invents.
            assert 0 in hits and set(hits) <= {0, 1}
        else:
            assert hits == [0, 1]


@pytest.mark.parametrize("backend", ["lsh"])
class TestExactAgreement:
    def test_knn_matches_brute(self, backend, rng):
        # lsh is seeded and near-exact on clustered data — cluster the
        # points so every bucket holds the query's neighborhood.
        centers = rng.normal(size=(10, 8)) * 5.0
        points = np.concatenate(
            [c + rng.normal(scale=0.05, size=(40, 8)) for c in centers]
        )
        exact = make_index("brute", 8, dtype=np.float64)
        exact.add_batch(points)
        other = make_index(backend, 8)
        other.add_batch(points)
        for center in centers:
            query = center + rng.normal(scale=0.05, size=8)
            truth = [h.id for h in exact.query(query, k=5)]
            got = [h.id for h in other.query(query, k=5)]
            assert len(set(got) & set(truth)) >= 4

    def test_radius_matches_brute(self, rng, backend):
        points = rng.normal(size=(150, 6))
        exact = make_index("brute", 6, dtype=np.float64)
        exact.add_batch(points)
        other = make_index(backend, 6)
        other.add_batch(points)
        query = points[0]
        truth = {h.id for h in exact.query_radius(query, 1.5)}
        got = {h.id for h in other.query_radius(query, 1.5)}
        assert got <= truth  # LSH may miss, never invents


def as_kdtree_header(header):
    """The header the retired exact k-d tree backend wrote for the same
    stored vectors (it kept a leaf size where brute keeps a block size)."""
    header = dict(header, backend="kdtree", leaf_size=16)
    del header["block_rows"]
    return header


class TestRetiredKDTree:
    def test_kdtree_archive_loads_as_brute(self, tmp_path, cloud):
        index = BruteForceIndex(12, dtype=np.float64)
        index.add_batch(cloud[:50], payloads=[f"p{i}" for i in range(50)])
        index.remove(7)
        path = tmp_path / "kd.npz"
        save_index(index, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["header"] = pack_header(as_kdtree_header(unpack_header(arrays)))
        np.savez(path, **arrays)

        back = load_index(path)
        assert isinstance(back, BruteForceIndex)
        assert back.ids() == index.ids()
        assert [back.payload(i) for i in back.ids()] == [
            index.payload(i) for i in index.ids()
        ]
        for query in cloud[50:60]:
            assert back.query(query, k=5) == index.query(query, k=5)
            assert back.query_radius(query, 4.0) == index.query_radius(
                query, 4.0
            )

    def test_kdtree_is_no_longer_a_choice(self):
        with pytest.raises(ValueError):
            create_index("kdtree", 3)


class TestBruteExactness:
    def test_bit_identical_to_python_scan(self, rng):
        points = rng.normal(size=(500, 30))
        index = BruteForceIndex(30, dtype=np.float64, block_rows=64)
        index.add_batch(points)
        query = rng.normal(size=30)
        scan = sorted(
            (float(np.linalg.norm(query - p)), i)
            for i, p in enumerate(points)
        )[:10]
        hits = index.query(query, k=10)
        assert [(h.distance, h.id) for h in hits] == scan

    def test_batched_matches_single(self, rng):
        points = rng.normal(size=(200, 10))
        index = BruteForceIndex(10, dtype=np.float64)
        index.add_batch(points)
        queries = rng.normal(size=(7, 10))
        batched = index.query_batch(queries, k=4)
        for query, hits in zip(queries, batched):
            assert hits == index.query(query, k=4)

    def test_growth_preserves_contents(self):
        index = BruteForceIndex(2, dtype=np.float64)
        for i in range(100):  # forces several doublings
            index.add(np.array([float(i), 0.0]))
        hit = index.query(np.array([57.2, 0.0]), k=1)[0]
        assert hit.id == 57


class TestLSHDeterminism:
    def test_same_seed_same_results(self, rng):
        points = rng.normal(size=(300, 8))
        queries = rng.normal(size=(5, 8))
        results = []
        for _ in range(2):
            index = LSHIndex(8, seed=123)
            index.add_batch(points)
            results.append(
                [[(h.id, h.distance) for h in index.query(q, k=5)]
                 for q in queries]
            )
        assert results[0] == results[1]

    def test_incremental_add_after_hashing(self, rng):
        points = rng.normal(size=(100, 4))
        index = LSHIndex(4, seed=5)
        index.add_batch(points)
        index.query(points[0], k=1)  # freezes width, hashes everything
        new = np.array([50.0, 50.0, 50.0, 50.0])
        new_id = index.add(new)
        assert index.query(new, k=1)[0].id == new_id
