import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrain import metrics
from blocktrain.data import generate_corpus, stack_frames
from blocktrain.metrics import (
    EvalRecord,
    evaluate_checkpoints,
    frame_error_rate,
    shadow_verdicts,
)
from blocktrain.models import Batch, LstmSpec, MlpSpec, init_params, predict_frames
from blocktrain.numerics import ParamVector, make_rng
from blocktrain.sync import Checkpoint


class TestFrameErrorRate:
    def test_all_correct(self):
        assert frame_error_rate(np.array([1, 2, 3]), np.array([1, 2, 3])) == 0.0

    def test_all_wrong(self):
        assert frame_error_rate(np.array([0, 0]), np.array([1, 2])) == 1.0

    def test_one_of_four(self):
        assert frame_error_rate(np.array([1, 1, 1, 0]), np.array([1, 1, 1, 1])) == 0.25

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            frame_error_rate(np.array([]), np.array([]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            frame_error_rate(np.array([1]), np.array([1, 2]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_joint_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        preds = rng.integers(4, size=n)
        labels = rng.integers(4, size=n)
        perm = rng.permutation(n)
        assert frame_error_rate(preds, labels) == frame_error_rate(preds[perm], labels[perm])

    def test_record_range_validated(self):
        with pytest.raises(ValueError, match="fer"):
            EvalRecord("bmuf", 1.0, 1.5)


def eval_batch_from_corpus(seed=0, classes=5):
    corpus = generate_corpus(8, 3, 24, 4, classes, make_rng(seed))
    parts = [stack_frames(u.frames, u.labels, 2) for u in corpus.utterances]
    return Batch(
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        tuple(p[0].shape[0] for p in parts),
    )


class TestEvaluateCheckpoints:
    def test_record_shape_four_epochs_four_checkpoints(self):
        spec = MlpSpec((8, 6, 5))
        rng = make_rng(1)
        batch = eval_batch_from_corpus()
        checkpoints = []
        for e in range(4):
            for q in (1, 2, 3, 4):
                for strategy in ("bmuf", "ma", "ema"):
                    checkpoints.append(
                        Checkpoint(strategy, e * 4 + q, e + q / 4, init_params(spec, rng))
                    )
        records = evaluate_checkpoints(checkpoints, batch, spec)
        assert len(records) == 48
        assert [r.strategy for r in records[:3]] == ["bmuf", "ma", "ema"]
        assert records[0].epoch == 0.25 and records[-1].epoch == 4.0

    def test_identical_params_identical_fer(self):
        spec = MlpSpec((8, 6, 5))
        params = init_params(spec, make_rng(3))
        batch = eval_batch_from_corpus()
        records = evaluate_checkpoints(
            [Checkpoint("bmuf", 1, 0.25, params), Checkpoint("ema", 1, 0.25, params)],
            batch,
            spec,
        )
        assert records[0].fer == records[1].fer

    def test_untrained_model_near_chance(self):
        classes = 5
        spec = MlpSpec((8, 6, classes))
        batch = eval_batch_from_corpus(seed=7, classes=classes)
        fers = []
        for seed in range(5):
            params = init_params(spec, make_rng(100 + seed))
            (record,) = evaluate_checkpoints([Checkpoint("bmuf", 1, 1.0, params)], batch, spec)
            fers.append(record.fer)
        assert abs(np.mean(fers) - (1.0 - 1.0 / classes)) <= 0.05

    def test_evaluation_does_not_mutate_params(self):
        spec = MlpSpec((8, 6, 5))
        params = init_params(spec, make_rng(9))
        before = params.values.tobytes()
        batch = eval_batch_from_corpus()
        evaluate_checkpoints([Checkpoint("ma", 2, 0.5, params)], batch, spec)
        assert params.values.tobytes() == before

    @pytest.mark.parametrize(
        "spec", [MlpSpec((8, 6, 5)), MlpSpec((8, 64, 64, 5)), LstmSpec(8, 4, 2, 5)]
    )
    def test_records_equal_fresh_allocation_loop(self, spec):
        rng = make_rng(11)
        batch = eval_batch_from_corpus()
        checkpoints = [
            Checkpoint(strategy, q, q / 4, init_params(spec, rng))
            for q in (1, 2)
            for strategy in ("bmuf", "ma", "ema")
        ]
        want = [
            EvalRecord(
                cp.strategy,
                cp.epoch,
                frame_error_rate(
                    predict_frames(spec, cp.params, batch),
                    batch.targets,
                ),
            )
            for cp in checkpoints
        ]
        assert evaluate_checkpoints(checkpoints, batch, spec) == want

    def test_one_workspace_for_every_checkpoint(self, monkeypatch):
        seen = []

        def spy(*args, workspace=None):
            seen.append(workspace)
            return predict_frames(*args, workspace=workspace)

        monkeypatch.setattr(metrics, "predict_frames", spy)
        spec = MlpSpec((8, 6, 5))
        rng = make_rng(13)
        checkpoints = [Checkpoint("bmuf", q, q / 4, init_params(spec, rng)) for q in (1, 2, 3)]
        evaluate_checkpoints(checkpoints, eval_batch_from_corpus(), spec)
        assert len(seen) == 3 and seen[0] is not None
        assert all(w is seen[0] for w in seen)

    def test_every_checkpoint_predicts_on_the_eval_batch_itself(self, monkeypatch):
        # the set is checked once, when it is built, not rebuilt per checkpoint
        seen = []

        def spy(spec, params, batch, *, workspace=None):
            seen.append(batch)
            return predict_frames(spec, params, batch, workspace=workspace)

        monkeypatch.setattr(metrics, "predict_frames", spy)
        spec = LstmSpec(8, 4, 2, 5)
        rng = make_rng(17)
        checkpoints = [Checkpoint("ema", q, q / 4, init_params(spec, rng)) for q in (1, 2)]
        batch = eval_batch_from_corpus()
        evaluate_checkpoints(checkpoints, batch, spec)
        assert len(seen) == 2
        assert all(b is batch for b in seen)

    def test_spec_mismatch_raises(self):
        spec = MlpSpec((8, 6, 5))
        batch = eval_batch_from_corpus()
        with pytest.raises(ValueError, match="length"):
            evaluate_checkpoints(
                [Checkpoint("bmuf", 1, 0.25, ParamVector.zeros(10))], batch, spec
            )


class TestShadowVerdicts:
    def records(self, ma, ema):
        return [
            EvalRecord(strategy, 0.25 * (k + 1), fer)
            for k, pair in enumerate(zip(ma, ema))
            for strategy, fer in zip(("ma", "ema"), pair)
        ]

    def test_ties_count_for_the_final_fer_not_the_spread(self):
        records = self.records([0.5, 0.3], [0.5, 0.3])
        assert shadow_verdicts({"bmuf": 0.2, "ema": 0.2}, records) == (True, False)

    def test_each_verdict_on_its_own(self):
        steady = self.records([0.6, 0.2], [0.3, 0.25])
        assert shadow_verdicts({"bmuf": 0.2, "ema": 0.3}, steady) == (False, True)
        unsteady = self.records([0.3, 0.25], [0.6, 0.2])
        assert shadow_verdicts({"bmuf": 0.3, "ema": 0.2}, unsteady) == (True, False)
