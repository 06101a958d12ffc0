"""The one Table-2 featurization core: memoized group B, block columns.

:meth:`OnlineFeatureExtractor.push_block` is the only online
featurization path (``push`` turns job objects into its columns), and
its group-B encoder, :class:`MetadataHasher`, is shared with the offline
:func:`extract_features`.  These tests pin:

1. memoized group-B rows equal a plain per-job ``tokenize`` /
   ``stable_hash`` loop written here, for any metadata (missing fields,
   empty maps, non-ASCII text, bucket collisions, repeats), across
   blocks, through a memo clear, and after a copy or a pickle;
2. the reused row scratch never leaks one block's group B/C into the
   next;
3. ``push`` at block sizes 1, 7 and 64 equals ``extract_features`` on
   the examples cluster;
4. the single-row forest scorer equals the batch scorer and the legacy
   per-tree loop.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml import GBTClassifier
from repro.ml.gbdt import GBTRegressor
from repro.workloads import ClusterSpec, extract_features, generate_cluster_trace
from repro.workloads import features as features_mod
from repro.workloads.features import (
    METADATA_MEMO_SIZE,
    RESOURCE_FEATURES,
    MetadataHasher,
    OnlineFeatureExtractor,
)
from repro.workloads.metadata import METADATA_FIELDS, stable_hash, tokenize

from helpers import make_job


def reference_group_b(metadata, n_buckets: int) -> np.ndarray:
    """Group B the direct way: tokenize and hash every field of every job."""
    X = np.zeros((len(metadata), len(METADATA_FIELDS) * n_buckets))
    for i, md in enumerate(metadata):
        for f_idx, field in enumerate(METADATA_FIELDS):
            value = md.get(field, "") if md else ""
            for token in tokenize(value):
                X[i, f_idx * n_buckets + stable_hash(token, seed=f_idx) % n_buckets] = 1.0
    return X


def colliding_tokens(seed: int, n_buckets: int) -> tuple[str, str]:
    """Two distinct tokens that hash to one bucket of field ``seed``."""
    seen: dict[int, str] = {}
    for i in range(10 * n_buckets):
        token = f"tok{i}"
        bucket = stable_hash(token, seed=seed) % n_buckets
        if bucket in seen:
            return seen[bucket], token
        seen[bucket] = token
    raise AssertionError("no collision found")


_A, _B = colliding_tokens(1, 16)

#: Field values: empty, separators only, non-ASCII, a bucket collision.
_VALUES = st.sampled_from(
    [
        "",
        "//:.-",
        "//storage/logs/buildmanager:importer",
        "com.ads.dbquery.joiner.launcher.Main",
        "s3-open-shuffle3",
        "GroupByKey-0",
        "naïve/Ünïcode-ß:数据",
        "😀-emoji_only",
        f"{_A}.{_B}",
        _A,
    ]
)
_METADATA = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(st.sampled_from(METADATA_FIELDS), _VALUES),
)
_BLOCKS = st.lists(_METADATA, min_size=0, max_size=40)


class TestMemoizedGroupB:
    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.lists(_BLOCKS, min_size=1, max_size=4),
        n_buckets=st.sampled_from([1, 3, 16]),
    )
    @example(blocks=[[{}, None, {"execution_name": f"{_A}.{_B}"}] * 3], n_buckets=16)
    def test_rows_equal_reference_loop(self, blocks, n_buckets):
        """Across blocks one memo serves, every group-B row equals the
        direct loop; repeats and collisions included."""
        hasher = MetadataHasher(n_buckets)
        ex = OnlineFeatureExtractor(n_hash_buckets=n_buckets)
        b_cols = slice(4, 4 + len(METADATA_FIELDS) * n_buckets)
        for metadata in blocks:
            ref = reference_group_b(metadata, n_buckets)
            out = np.full((len(metadata), hasher.width), np.nan)
            np.testing.assert_array_equal(hasher.encode(metadata, out), ref)
            k = len(metadata)
            rows = ex.push_block(
                np.arange(k, dtype=float), np.ones(k), np.ones(k), np.zeros(k),
                np.zeros(k), np.zeros(k), ["p"] * k, metadata=metadata,
            )
            np.testing.assert_array_equal(rows[:, b_cols], ref)
        assert len(hasher) <= METADATA_MEMO_SIZE

    def test_collision_sets_one_bucket(self):
        row = reference_group_b([{"execution_name": f"{_A}.{_B}"}], 16)
        assert row.sum() == 1.0
        out = np.empty((1, 80))
        MetadataHasher(16).encode([{"execution_name": f"{_A}.{_B}"}], out)
        np.testing.assert_array_equal(out, row)

    def test_memo_hashes_each_distinct_tuple_once(self):
        hasher = MetadataHasher()
        metadata = [make_job(i, pipeline=f"p{i % 3}").metadata for i in range(90)]
        hasher.encode(metadata, np.empty((90, hasher.width)))
        assert len(hasher) == 3

    @pytest.mark.parametrize("size", (1, 4, 64))
    def test_memo_is_bounded_and_clears(self, monkeypatch, size):
        """More distinct tuples than the memo holds, in one block and
        across blocks, or more than its table's first rows (64): rows
        stay exact and the memo never exceeds its bound."""
        monkeypatch.setattr(features_mod, "METADATA_MEMO_SIZE", size)
        hasher = MetadataHasher()
        metadata = [{"user_name": f"user{i % 11}-x{i}"} for i in range(30)]
        ref = reference_group_b(metadata, 16)
        for lo, hi in ((0, 30), (3, 9), (0, 1)):
            out = np.empty((hi - lo, hasher.width))
            hasher.encode(metadata[lo:hi], out)
            np.testing.assert_array_equal(out, ref[lo:hi])
            assert len(hasher) <= size

    def test_memo_is_not_snapshotted(self):
        """Copies and pickles of an extractor start with an empty memo
        and produce the same rows as the original."""
        jobs = [make_job(i, arrival=60.0 * i, pipeline=f"p{i % 4}") for i in range(40)]
        ex = OnlineFeatureExtractor()
        ex.push(jobs[:20])
        assert len(ex._hasher) == 4
        clones = [copy.deepcopy(ex), pickle.loads(pickle.dumps(ex))]
        ref = ex.push(jobs[20:])
        for clone in clones:
            assert len(clone._hasher) == 0
            np.testing.assert_array_equal(clone.push(jobs[20:]), ref)

    def test_extractor_pickled_without_memo_restores(self):
        """State pickled before the memo existed (numpy running sums,
        no hasher) restores and continues with identical rows."""
        jobs = [make_job(i, arrival=60.0 * i, pipeline=f"p{i % 4}") for i in range(40)]
        ex = OnlineFeatureExtractor()
        ex.push(jobs[:20])
        state = copy.deepcopy(ex.__dict__)
        del state["_hasher"]
        state["_sums"] = {p: np.array(v) for p, v in state["_sums"].items()}
        old = OnlineFeatureExtractor.__new__(OnlineFeatureExtractor)
        old.__setstate__(state)
        np.testing.assert_array_equal(old.push(jobs[20:]), ex.push(jobs[20:]))

    def test_non_string_value_raises_and_leaves_memo_usable(self):
        hasher = MetadataHasher()
        with pytest.raises(TypeError):
            hasher.encode([{"user_name": 7}], np.empty((1, hasher.width)))
        md = [{"user_name": "ok-user"}]
        out = np.empty((1, hasher.width))
        np.testing.assert_array_equal(hasher.encode(md, out), reference_group_b(md, 16))


class TestScratchDoesNotLeak:
    @pytest.mark.parametrize("k", (1, 5))
    def test_block_without_maps_has_zero_group_bc(self, k):
        jobs = [make_job(i, arrival=10.0 * i) for i in range(2 * k)]
        ex = OnlineFeatureExtractor()
        b_c = slice(4, ex.n_features - 3)

        def cols(js):
            return (
                np.array([j.arrival for j in js]), np.array([j.duration for j in js]),
                np.array([j.size for j in js]), np.array([j.read_bytes for j in js]),
                np.array([j.write_bytes for j in js]),
                np.array([j.read_ops for j in js]), [j.pipeline for j in js],
            )

        first = ex.push_block(
            *cols(jobs[:k]),
            metadata=[j.metadata for j in jobs[:k]],
            resources=[j.resources for j in jobs[:k]],
        )
        assert first[:, b_c].any()
        second = ex.push_block(*cols(jobs[k:]))
        assert second.base is first.base  # the same scratch
        assert not second[:, b_c].any()

    def test_push_returns_a_fresh_array(self):
        jobs = [make_job(i, arrival=10.0 * i) for i in range(4)]
        ex = OnlineFeatureExtractor()
        a = ex.push(jobs[:2])
        a_copy = a.copy()
        ex.push(jobs[2:])
        np.testing.assert_array_equal(a, a_copy)

    def test_partial_resources_fill_zero(self):
        job = make_job(0)
        partial = {RESOURCE_FEATURES[2]: 5.0}
        ex = OnlineFeatureExtractor()
        rows = ex.push_block(
            [job.arrival], [job.duration], [job.size], [job.read_bytes],
            [job.write_bytes], [job.read_ops], [job.pipeline],
            resources=[partial],
        )
        c = rows[0, ex.n_features - 3 - len(RESOURCE_FEATURES) : ex.n_features - 3]
        np.testing.assert_array_equal(c, [0, 0, 5.0, 0, 0, 0, 0, 0])


@pytest.fixture(scope="module")
def examples_cluster():
    """The cluster of ``examples/online_service.py``."""
    spec = ClusterSpec(
        name="C0",
        archetype_weights={"dbquery": 2, "logproc": 2, "streaming": 1, "mltrain": 1},
        n_pipelines=24,
        n_users=8,
        seed=11,
    )
    return generate_cluster_trace(spec)


class TestPushMatchesOffline:
    @pytest.mark.parametrize("k", (1, 7, 64))
    def test_push_blocks_equal_extract_features(self, examples_cluster, k):
        offline = extract_features(examples_cluster)
        jobs = list(examples_cluster)
        ex = OnlineFeatureExtractor()
        rows = np.vstack([ex.push(jobs[lo : lo + k]) for lo in range(0, len(jobs), k)])
        np.testing.assert_array_equal(rows, offline.X)


class TestSingleRowScores:
    def _check(self, packed, Xb, base, lr, k, legacy):
        batch = packed.decision_scores(Xb, base, lr, k)
        out = np.empty(k)
        for i in range(0, len(Xb), 7):
            one = packed.decision_scores_one(Xb[i], base, lr, k, out=out)
            np.testing.assert_array_equal(one, batch[i])
            np.testing.assert_array_equal(one, legacy[i])
        np.testing.assert_array_equal(
            packed.decision_scores_one(Xb[3], base, lr, k), batch[3]
        )

    def test_one_class(self):
        rng = np.random.default_rng(71)
        X = rng.normal(size=(300, 6))
        y = X[:, 0] * 2 + rng.normal(size=300)
        reg = GBTRegressor(n_rounds=20, max_depth=4).fit(X, y)
        Xb = reg.binner_.transform(X)
        legacy = np.full(300, reg.base_score_)
        for tree in reg.trees_:
            legacy += reg.learning_rate * tree.predict(Xb)
        self._check(
            reg.packed_, Xb, reg.base_score_, reg.learning_rate, 1, legacy[:, None]
        )

    def test_fifteen_classes(self):
        rng = np.random.default_rng(72)
        X = rng.normal(size=(600, 8))
        y = np.digitize(X[:, 0] + 0.3 * X[:, 1], np.linspace(-2, 2, 14))
        gbt = GBTClassifier(n_rounds=20, max_depth=4).fit(X, y)
        k = len(gbt.classes_)
        assert k == 15
        Xb = gbt.binner_.transform(X)
        self._check(
            gbt.packed_, Xb, gbt.base_score_, gbt.learning_rate, k,
            gbt._decision_function_legacy(X),
        )
