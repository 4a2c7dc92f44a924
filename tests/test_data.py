import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrain.data import (
    Corpus,
    SplitSpec,
    Utterance,
    generate_corpus,
    load_corpus,
    save_corpus,
    shard_dataset,
    split_by_speaker,
    stack_frames,
)
from blocktrain.models import Batch
from blocktrain.numerics import make_rng

from .oracles import corpus_reference


def small_corpus(seed, speakers=6, utts=2, frames=10, dim=3, classes=4):
    return generate_corpus(speakers, utts, frames, dim, classes, make_rng(seed))


class TestUtterance:
    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValueError, match="must be integer class indices"):
            Utterance(0, np.zeros((2, 3)), np.array([0.5, 1.7]))

    @pytest.mark.parametrize(
        "frames, labels, match",
        [
            (np.array([[0.0, np.inf], [1.0, 2.0]]), [0, 1], "non-finite"),
            (np.array([[0.0, 1.0], [np.nan, 2.0]]), [0, 1], "non-finite"),
            (np.zeros(3), [0, 1, 2], r"\(frames >= 1, dim\)"),
            (np.zeros((0, 3)), np.zeros(0, dtype=int), r"\(frames >= 1, dim\)"),
            (np.zeros((3, 2)), [0, 1], "one entry per frame"),
            (np.zeros((2, 2)), [0, -1], "non-negative"),
        ],
        ids=["inf", "nan", "1-d", "zero-frames", "label-count", "negative-label"],
    )
    def test_rejects_what_a_batch_rejects(self, frames, labels, match):
        with pytest.raises(ValueError, match=match):
            Utterance(0, frames, labels)

    def test_keeps_read_only_float64_frames_and_int64_labels(self):
        frames = np.arange(6).reshape(3, 2)
        u = Utterance(0, frames, np.array([2, 0, 1], dtype=np.int32))
        assert u.frames.dtype == np.float64 and u.labels.dtype == np.int64
        assert not (u.frames.flags.writeable or u.labels.flags.writeable)
        assert not np.shares_memory(u.frames, frames)
        assert u.num_frames == 3


class TestGenerateCorpus:
    def test_deterministic(self):
        a = small_corpus(3)
        b = small_corpus(3)
        assert len(a) == len(b) == 12
        for ua, ub in zip(a.utterances, b.utterances):
            assert ua.speaker == ub.speaker
            assert ua.frames.tobytes() == ub.frames.tobytes()
            assert np.array_equal(ua.labels, ub.labels)

    def test_single_class_labels_all_zero(self):
        corpus = generate_corpus(3, 2, 8, 2, 1, make_rng(0))
        for u in corpus.utterances:
            assert np.array_equal(u.labels, np.zeros(8, dtype=np.int64))

    def test_counts_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            generate_corpus(0, 1, 5, 2, 2, make_rng(0))

    @given(
        seed=st.integers(0, 2**32 - 1),
        speakers=st.integers(1, 3),
        utts=st.integers(1, 3),
        frames=st.integers(1, 40),
        dim=st.integers(1, 4),
        classes=st.integers(1, 9),
        change=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_frame_reference(
        self, seed, speakers, utts, frames, dim, classes, change
    ):
        args = (speakers, utts, frames, dim, classes)
        corpus = generate_corpus(*args, make_rng(seed), label_change_prob=change)
        expected = corpus_reference(*args, make_rng(seed), label_change_prob=change)
        assert len(corpus) == len(expected)
        for u, (speaker, want_frames, want_labels) in zip(corpus.utterances, expected):
            assert u.speaker == speaker
            assert u.frames.dtype == np.float64 and u.labels.dtype == np.int64
            assert u.frames.tobytes() == want_frames.tobytes()
            assert u.labels.tobytes() == want_labels.tobytes()

    def test_linear_classifier_beats_chance(self):
        corpus = generate_corpus(10, 4, 30, 8, 5, make_rng(1))
        frames = np.concatenate([u.frames for u in corpus.utterances])
        labels = np.concatenate([u.labels for u in corpus.utterances])
        onehot = np.eye(5)[labels]
        design = np.hstack([frames, np.ones((frames.shape[0], 1))])
        weights, *_ = np.linalg.lstsq(design, onehot, rcond=None)
        predictions = np.argmax(design @ weights, axis=1)
        fer = float(np.mean(predictions != labels))
        assert fer < 1.0 - 1.0 / 5


class TestSplitBySpeaker:
    def test_exact_sizes_with_round_half_up(self):
        corpus = small_corpus(5, speakers=10)
        train, val, test = split_by_speaker(corpus, SplitSpec(0.8, 0.1, 0.1), make_rng(2))
        assert (len(train.speakers), len(val.speakers), len(test.speakers)) == (8, 1, 1)

    def test_everything_in_train(self):
        corpus = small_corpus(6)
        train, val, test = split_by_speaker(corpus, SplitSpec(1.0, 0.0, 0.0), make_rng(2))
        assert len(train) == len(corpus)
        assert len(val) == 0 and len(test) == 0

    def test_needs_three_speakers(self):
        corpus = small_corpus(7, speakers=2)
        with pytest.raises(ValueError, match="at least 3 speakers"):
            split_by_speaker(corpus, SplitSpec(), make_rng(0))

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(0.9, 0.2, 0.1)
        with pytest.raises(ValueError, match="fraction"):
            SplitSpec(1.2, -0.1, -0.1)

    @given(
        seed=st.integers(0, 2**32 - 1),
        speakers=st.integers(min_value=3, max_value=25),
        train=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_speaker_sets_pairwise_disjoint_and_complete(self, seed, speakers, train):
        rest = 1.0 - train
        spec = SplitSpec(train, rest / 2, rest / 2)
        corpus = generate_corpus(speakers, 1, 4, 2, 2, make_rng(seed))
        parts = split_by_speaker(corpus, spec, make_rng(seed + 1))
        sets = [set(p.speakers) for p in parts]
        assert sets[0] | sets[1] | sets[2] == set(corpus.speakers)
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
        assert sum(len(p) for p in parts) == len(corpus)


class TestStackFrames:
    def test_shapes(self):
        frames = np.arange(12, dtype=float).reshape(6, 2)
        labels = np.arange(6)
        stacked, super_labels = stack_frames(frames, labels, 3)
        assert stacked.shape == (2, 6)
        assert np.array_equal(stacked[0], [0, 1, 2, 3, 4, 5])
        assert np.array_equal(super_labels, [2, 5])

    def test_remainder_dropped(self):
        frames = np.zeros((7, 2))
        stacked, labels = stack_frames(frames, np.arange(7), 3)
        assert stacked.shape == (2, 6)
        assert np.array_equal(labels, [2, 5])

    def test_k_one_is_identity(self):
        frames = np.random.default_rng(0).normal(size=(5, 3))
        labels = np.arange(5)
        stacked, super_labels = stack_frames(frames, labels, 1)
        assert np.array_equal(stacked, frames)
        assert np.array_equal(super_labels, labels)

    def test_non_integer_labels_reach_the_batch_check_untruncated(self):
        # a cast to int64 would turn the super-labels 2.2 and 2.6 into 2, 2
        frames = np.zeros((6, 2))
        labels = np.array([0.0, 1.0, 2.2, 0.0, 1.0, 2.6])
        stacked, super_labels = stack_frames(frames, labels, 3)
        assert np.array_equal(super_labels, [2.2, 2.6])
        with pytest.raises(ValueError, match="must be integer class indices"):
            Batch(stacked, super_labels)

    def test_int64_super_labels_are_a_view(self):
        labels = np.arange(6, dtype=np.int64)
        _, super_labels = stack_frames(np.zeros((6, 2)), labels, 3)
        assert np.shares_memory(super_labels, labels)

    def test_k_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            stack_frames(np.zeros((3, 2)), np.zeros(3), 0)

    @given(
        t=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_output_count_and_dim(self, t, d, k):
        stacked, labels = stack_frames(np.zeros((t, d)), np.zeros(t, dtype=int), k)
        assert stacked.shape == (t // k, k * d)
        assert labels.shape == (t // k,)


class TestShardDataset:
    def test_single_shard_is_input(self):
        corpus = small_corpus(1)
        (shard,) = shard_dataset(corpus, 1, make_rng(0))
        assert sorted(id(u) for u in shard.utterances) == sorted(
            id(u) for u in corpus.utterances
        )

    def test_ten_utterances_eight_workers(self):
        corpus = generate_corpus(10, 1, 4, 2, 2, make_rng(3))
        shards = shard_dataset(corpus, 8, make_rng(1))
        assert sorted((len(s) for s in shards), reverse=True) == [2, 2, 1, 1, 1, 1, 1, 1]

    @given(
        n=st.integers(min_value=1, max_value=12),
        utts=st.integers(min_value=1, max_value=30),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_union_is_exact_partition(self, n, utts, seed):
        rng = make_rng(seed)
        corpus = Corpus(
            tuple(
                Utterance(i, rng.normal(size=(2, 2)), np.zeros(2, dtype=int))
                for i in range(utts)
            )
        )
        shards = shard_dataset(corpus, n, make_rng(seed + 1))
        seen = [id(u) for s in shards for u in s.utterances]
        assert sorted(seen) == sorted(id(u) for u in corpus.utterances)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1


class TestLearnability:
    def test_default_corpus_learnable_by_single_worker_in_one_epoch(self):
        from blocktrain.experiment import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            **{**ExperimentConfig().__dict__, "num_workers": 1, "epochs": 1}
        )
        result = run_experiment(config, threaded=False)
        final_val = [r.fer for r in result.val_records if r.strategy == "bmuf"][-1]
        chance = 1.0 - 1.0 / config.num_classes
        assert final_val < chance - 0.1


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        corpus = small_corpus(11)
        path = tmp_path / "corpus.npz"
        save_corpus(path, corpus)
        loaded = load_corpus(path)
        assert len(loaded) == len(corpus)
        # the utterances are read-only views of the file's two arrays
        frames, labels = loaded.utterances[0].frames.base, loaded.utterances[0].labels.base
        for a, b in zip(corpus.utterances, loaded.utterances):
            assert a.speaker == b.speaker
            assert a.frames.tobytes() == b.frames.tobytes()
            assert np.array_equal(a.labels, b.labels)
            assert not (b.frames.flags.writeable or b.labels.flags.writeable)
            assert b.frames.base is frames and np.shares_memory(b.frames, frames)
            assert b.labels.base is labels and np.shares_memory(b.labels, labels)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "corpus.npz"
        np.savez(
            path,
            format_version=42,
            speakers=np.zeros(1, dtype=np.int64),
            frame_counts=np.array([1]),
            frames=np.zeros((1, 2)),
            labels=np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="format version"):
            load_corpus(path)

    def test_rejects_negative_label_at_load(self, tmp_path):
        path = tmp_path / "corpus.npz"
        np.savez(
            path,
            format_version=1,
            speakers=np.zeros(2, dtype=np.int64),
            frame_counts=np.array([2, 2]),
            frames=np.zeros((4, 2)),
            labels=np.array([0, 1, -3, 0], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="non-negative"):
            load_corpus(path)
