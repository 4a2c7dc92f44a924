import copy
import importlib.util
import pickle
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrain import experiment, metrics
from blocktrain.cli import main
from blocktrain.cluster import Cluster
from blocktrain.data import generate_corpus, stack_frames
from blocktrain.experiment import (
    ConfigError,
    ExperimentConfig,
    TrainingError,
    run_experiment,
    write_run_artifacts,
)
from blocktrain.metrics import evaluate_checkpoints, shadow_verdicts
from blocktrain.models import init_params
from blocktrain.numerics import substream
from blocktrain.sync import ShadowState, shadow_update

from .faults import inject_faults

ROOT = Path(__file__).resolve().parent.parent

# a deliberately small but non-degenerate setup: 20 train utterances per
# worker at block_size 2 gives 10 blocks per epoch
TINY = ExperimentConfig(
    model="mlp",
    mlp_hidden=(8,),
    num_classes=3,
    base_dim=4,
    stack=2,
    speakers=25,
    utterances_per_speaker=2,
    frames_per_utterance=12,
    num_workers=2,
    block_size=2,
    block_momentum=0.9,
    block_learning_rate=1.0,
    ema_rate=0.8,
    learning_rate=0.1,
    momentum=0.5,
    epochs=1,
    seed=77,
)


# the default MLP with a learning rate that overflows its parameters in the
# first epoch, in the same block and worker under both threading modes
DIVERGING = replace(
    ExperimentConfig.from_file(ROOT / "configs" / "default_mlp.cfg"),
    learning_rate=1e306,
    momentum=0.99,
    epochs=1,
)
DIVERGED = "block 9, worker 4: parameter vector contains non-finite values"


def write_tiny_config(path, **overrides):
    cfg = TINY
    for key, value in overrides.items():
        cfg = ExperimentConfig(**{**cfg.__dict__, key: value})
    cfg.to_file(path)
    return cfg


class TestConfigRoundTrip:
    def test_text_round_trip_is_lossless(self):
        cfg = ExperimentConfig(
            learning_rate=0.1,
            class_separation=1.7,
            mlp_hidden=(48, 24),
            reset_momentum=True,
        )
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_bool_values_are_strict(self):
        assert ExperimentConfig.from_text("reset_momentum = true\n").reset_momentum
        with pytest.raises(ConfigError, match="reset_momentum"):
            ExperimentConfig.from_text("reset_momentum = yes\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        TINY.to_file(path)
        assert ExperimentConfig.from_file(path) == TINY

    def test_comments_and_blank_lines_ignored(self):
        cfg = ExperimentConfig.from_text("# hello\n\nmodel = lstm  # trailing\n")
        assert cfg.model == "lstm"

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="lerning_rate"):
            ExperimentConfig.from_text("lerning_rate = 0.1\n")

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError, match="epochs"):
            ExperimentConfig.from_text("epochs = four\n")
        # an empty entry is an error, not a dropped layer
        for hidden in ("32,,64", "32,", ",32", ","):
            with pytest.raises(ConfigError, match="'mlp_hidden': cannot parse"):
                ExperimentConfig.from_text(f"mlp_hidden = {hidden}\n")

    def test_duplicate_key_is_named(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.from_text("epochs = 1\nepochs = 2\n")

    def test_invalid_combination_is_named(self):
        with pytest.raises(ConfigError, match="train_fraction"):
            ExperimentConfig(train_fraction=0.9, val_fraction=0.2, test_fraction=0.1)

    def test_validation_names_key(self):
        with pytest.raises(ConfigError, match="block_momentum"):
            ExperimentConfig(block_momentum=1.0)

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            # seed 1.5 would train as seed 1 and write a manifest that
            # ``--config`` rejects
            ("seed", 1.5, "an integer"),
            ("epochs", 2.5, "an integer"),
            ("num_workers", True, "an integer"),
            ("lstm_layers", "2", "an integer"),
            ("mlp_hidden", (32.7,), "a sequence of integers"),
            ("mlp_hidden", (True, 4), "a sequence of integers"),
            ("mlp_hidden", 32, "a sequence of integers"),
            ("learning_rate", False, "a real number"),
            ("ema_rate", "0.9", "a real number"),
            ("reset_momentum", 1, "true or false"),
            ("model", None, "a string"),
        ],
    )
    def test_wrong_type_is_named(self, key, value, kind):
        with pytest.raises(ConfigError, match=f"'{key}': must be {kind}, got"):
            ExperimentConfig(**{key: value})

    def test_integer_float_value_is_stored_as_float(self):
        cfg = ExperimentConfig(block_learning_rate=1)
        assert type(cfg.block_learning_rate) is float
        assert "block_learning_rate = 1.0\n" in cfg.to_text()
        assert ExperimentConfig.from_text(cfg.to_text()).to_text() == cfg.to_text()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "key", [f.name for f in fields(ExperimentConfig) if f.type in ("float", float)]
    )
    def test_non_finite_float_is_named(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}': must be finite"):
            ExperimentConfig.from_text(f"{key} = {value}\n")

    @pytest.mark.parametrize(
        "clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy], ids=["pickle", "copy"]
    )
    @pytest.mark.parametrize(
        "error",
        [ConfigError("seed", "must be >= 0"), TrainingError("block 3, worker 2: boom")],
        ids=["ConfigError", "TrainingError"],
    )
    def test_errors_survive_pickling_and_copying(self, clone, error):
        # errors may cross process boundaries, which pickles them
        twin = clone(error)
        assert type(twin) is type(error)
        assert str(twin) == str(error)
        assert twin.args == error.args
        assert getattr(twin, "key", None) == getattr(error, "key", None)


class TestRunExperiment:
    def test_tiny_run_shapes(self):
        result = run_experiment(TINY, threaded=False)
        strategies = 3
        assert len(result.val_records) == TINY.epochs * 4 * strategies
        assert len(result.test_records) == len(result.val_records)
        assert set(result.final_test_fer) == {"bmuf", "ma", "ema"}
        # the last checkpoint is the final state
        assert result.checkpoints[-3].block_index == result.sync_state.block_index
        assert (
            result.checkpoints[-3].params.values.tobytes()
            == result.sync_state.global_model.values.tobytes()
        )
        epochs = [r.epoch for r in result.val_records if r.strategy == "bmuf"]
        assert epochs == [0.25, 0.5, 0.75, 1.0]

    def test_final_models_match_last_checkpoint(self):
        result = run_experiment(TINY, threaded=False)
        finals = (
            result.sync_state.global_model,
            result.shadow_state.ma_model,
            result.shadow_state.ema_model,
        )
        last = result.checkpoints[-3:]
        assert [cp.strategy for cp in last] == ["bmuf", "ma", "ema"]
        for cp, final in zip(last, finals):
            assert cp.params.values.tobytes() == final.values.tobytes()

    def test_shadows_disabled_only_bmuf(self):
        result = run_experiment(TINY, threaded=False, shadows_enabled=False)
        assert {r.strategy for r in result.val_records} == {"bmuf"}
        assert set(result.final_test_fer) == {"bmuf"}

    @pytest.mark.parametrize("shadows_enabled", [True, False])
    def test_test_curve_is_evaluated_on_first_read(
        self, tmp_path, monkeypatch, shadows_enabled
    ):
        # a run and its artifacts predict the test set at the last
        # checkpoint only; the per-checkpoint test curve costs one
        # prediction per checkpoint on its first read and none after
        predict = metrics.predict_frames
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return predict(*args, **kwargs)

        monkeypatch.setattr(metrics, "predict_frames", counted)
        result = run_experiment(TINY, threaded=False, shadows_enabled=shadows_enabled)
        write_run_artifacts(result, tmp_path)
        k = 3 if shadows_enabled else 1
        assert len(calls) == len(result.val_records) + k
        records = result.test_records
        assert len(calls) == len(result.val_records) + k + len(result.checkpoints)
        assert result.test_records is records
        assert len(calls) == len(result.val_records) + k + len(result.checkpoints)
        monkeypatch.undo()
        want = evaluate_checkpoints(result.checkpoints, result.test_set, TINY.model_spec())
        assert records == want
        final = list(result.final_test_fer.items())
        assert [(r.strategy, r.fer.hex()) for r in records[-k:]] == [
            (strategy, fer.hex()) for strategy, fer in final
        ]

    def test_trajectory_recording(self):
        result = run_experiment(TINY, threaded=False, record_trajectory=True)
        assert len(result.trajectory) == TINY.epochs * result.blocks_per_epoch

    def test_checkpoints_keep_their_own_bytes(self):
        # the cluster overwrites its live sync and shadow state every block;
        # each kept model must be the one of its own block
        result = run_experiment(TINY, threaded=False, record_trajectory=True)
        theta0 = init_params(TINY.model_spec(), substream(TINY.seed, experiment.TAG_INIT))
        shadow = ShadowState.initial(theta0, TINY.ema_rate)
        shadows = []
        for global_model in result.trajectory:
            shadow = shadow_update(shadow, global_model)
            shadows.append(shadow)
        assert len(result.checkpoints) == TINY.epochs * 4 * 3
        for cp in result.checkpoints:
            replay = shadows[cp.block_index - 1]
            want = {
                "bmuf": result.trajectory[cp.block_index - 1],
                "ma": replay.ma_model,
                "ema": replay.ema_model,
            }[cp.strategy]
            assert cp.params.values.tobytes() == want.values.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_failure_keeps_original_error_as_cause(self):
        with pytest.raises(TrainingError, match=f"^{DIVERGED}$") as failure:
            run_experiment(DIVERGING, threaded=False)
        assert type(failure.value.__cause__) is ValueError

    def test_evaluation_set_is_copied_once(self):
        # 400 utterances of 30 frames, as the default test set: the Batch
        # wraps the concatenated frames and labels without copying them
        corpus = generate_corpus(40, 10, 30, 12, 8, substream(5, 1))
        parts = [stack_frames(u.frames, u.labels, 3) for u in corpus.utterances]
        tracemalloc.start()
        try:
            batch = experiment._concat_batch(corpus, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (batch.inputs.nbytes + batch.targets.nbytes)
        assert batch.inputs.tobytes() == b"".join(p[0].tobytes() for p in parts)
        assert batch.targets.tolist() == [int(t) for p in parts for t in p[1]]
        assert batch.seq_lengths == tuple(p[0].shape[0] for p in parts)

    def test_too_few_blocks_per_epoch_rejected(self):
        with pytest.raises(ConfigError, match="block_size"):
            run_experiment(
                ExperimentConfig(**{**TINY.__dict__, "block_size": 64}), threaded=False
            )

    @given(
        overrides=st.fixed_dictionaries(
            {
                "model": st.sampled_from(["mlp", "lstm"]),
                "mlp_hidden": st.lists(st.integers(1, 4), max_size=2).map(tuple),
                "lstm_hidden": st.integers(1, 3),
                "lstm_layers": st.integers(1, 2),
                "num_classes": st.integers(1, 4),
                "base_dim": st.integers(1, 3),
                "stack": st.integers(1, 3),
                "speakers": st.integers(4, 24),
                "utterances_per_speaker": st.integers(1, 4),
                "frames_per_utterance": st.integers(3, 6),
                "num_workers": st.integers(1, 6),
                "block_size": st.integers(1, 3),
                "transport": st.sampled_from(["centralized", "decentralized"]),
                "reset_momentum": st.booleans(),
                "block_momentum": st.sampled_from([0.0, 0.5, 0.9]),
                "block_learning_rate": st.sampled_from([0.5, 1.0, 2.0]),
                "ema_rate": st.sampled_from([0.0, 0.9, 1.0]),
                "learning_rate": st.sampled_from([0.01, 0.1, 0.3]),
                "momentum": st.sampled_from([0.0, 0.5, 0.9]),
                "seed": st.integers(0, 3),
            }
        ),
        fractions=st.sampled_from([(0.8, 0.1, 0.1), (0.7, 0.1, 0.2), (0.4, 0.3, 0.3)]),
        # at most one key set out of range
        broken=st.none()
        | st.sampled_from(
            [
                ("model", "gru"),
                ("mlp_hidden", (0,)),
                ("lstm_layers", 0),
                ("num_classes", 0),
                ("speakers", 2),
                ("frames_per_utterance", 0),
                ("train_fraction", 0.9),
                ("num_workers", 0),
                ("block_size", 0),
                ("transport", "mesh"),
                ("block_momentum", 1.0),
                ("ema_rate", 1.5),
                ("learning_rate", 0.0),
                ("seed", -1),
            ]
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_small_config_runs_or_raises_config_error(
        self, overrides, fractions, broken
    ):
        """Every small config either runs or raises ConfigError, whether it
        fails validation or a run-time check (empty split, empty shard, too
        few blocks per epoch); no third outcome."""
        keys = ("train_fraction", "val_fraction", "test_fraction")
        overrides.update(zip(keys, fractions))
        overrides.update([broken] if broken else [])
        try:
            run_experiment(replace(TINY, epochs=1, **overrides), threaded=False)
        except ConfigError:
            pass

    def test_empty_shard_rejected(self):
        cfg = ExperimentConfig(
            **{
                **TINY.__dict__,
                "speakers": 10,
                "utterances_per_speaker": 1,
                "num_workers": 9,
            }
        )
        with pytest.raises(ConfigError, match="num_workers"):
            run_experiment(cfg, threaded=False)

    def test_huge_num_workers_rejected_before_sharding(self, monkeypatch):
        # sharding builds one shard per worker, so it must not be reached
        def no_sharding(*args):
            raise AssertionError("shard_dataset called")

        monkeypatch.setattr(experiment, "shard_dataset", no_sharding)
        with pytest.raises(ConfigError, match="num_workers"):
            run_experiment(replace(TINY, num_workers=10**12), threaded=False)


class TestCliRun:
    def test_run_writes_artifacts_and_reruns_identically(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        for name in ("curves.csv", "final.csv", "manifest.cfg"):
            assert (out_a / name).exists()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        curves = (out_a / "curves.csv").read_text().splitlines()
        assert curves[0] == "strategy,epoch,fer"
        assert len(curves) == 1 + TINY.epochs * 4 * 3
        final = (out_a / "final.csv").read_text().splitlines()
        assert final[0] == "strategy,test_fer"
        assert [row.split(",")[0] for row in final[1:]] == ["bmuf", "ma", "ema"]

    def test_single_thread_flag_matches_threaded(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        out_a = tmp_path / "threaded"
        out_b = tmp_path / "serial"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert (
            main(
                ["run", "--config", str(cfg_path), "--out", str(out_b), "--single-thread"]
            )
            == 0
        )
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        out_a = tmp_path / "a"
        main(["run", "--config", str(cfg_path), "--out", str(out_a)])
        out_b = tmp_path / "b"
        main(["run", "--config", str(out_a / "manifest.cfg"), "--out", str(out_b)])
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()

    def test_seed_override_changes_results_and_manifest(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", "--config", str(cfg_path), "--out", str(out_a)])
        main(["run", "--config", str(cfg_path), "--out", str(out_b), "--seed", "123"])
        assert (out_a / "curves.csv").read_bytes() != (out_b / "curves.csv").read_bytes()
        assert "seed = 123" in (out_b / "manifest.cfg").read_text()

    def test_invalid_config_names_key_and_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("model = transformer\n")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "model" in capsys.readouterr().err

    def test_non_finite_config_names_key_and_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("block_learning_rate = inf\n")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "block_learning_rate" in capsys.readouterr().err

    def test_undecodable_config_fails_naming_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_bytes(b"seed = 1\n\xff\xfe\n")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_dir_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["run", "--config", str(cfg_path), "--out", str(blocker / "sub")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--single-thread"]], ids=["threaded", "serial"])
    # a numpy warning on any thread would become that thread's error and
    # change the line; outside pytest it would print before the line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_ends_in_one_error_line(self, tmp_path, capsys, flags):
        cfg_path = tmp_path / "exp.cfg"
        DIVERGING.to_file(cfg_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), *flags])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: {DIVERGED}\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_failure_outside_training_keeps_its_traceback(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("evaluation bug")

        monkeypatch.setattr(experiment, "evaluate_checkpoints", broken)
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        with pytest.raises(ZeroDivisionError, match="evaluation bug"):
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])

    def test_worker_os_error_ends_in_one_error_line(self, tmp_path, capsys, monkeypatch):
        # an OSError from training is a failed run (3), not an I/O error (1),
        # and its line keeps the block and worker
        cause = FileNotFoundError(2, "No such file or directory", "shard.bin")
        inject_faults(monkeypatch, {1: cause})
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "error: block 1, worker 1: [Errno 2] No such file or directory: 'shard.bin'\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_cluster_bug_outside_the_block_steps_keeps_its_type(self, monkeypatch):
        # only a worker's or the coordinator's failure becomes a
        # TrainingError; a fault in the cluster's own plumbing is not one
        def broken(self):
            raise ZeroDivisionError("plumbing bug")

        monkeypatch.setattr(Cluster, "_train_workers", broken)
        with pytest.raises(ZeroDivisionError, match="plumbing bug"):
            run_experiment(TINY, threaded=False)

    def test_degenerate_collapse_bmuf_equals_ema(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path, block_momentum=0.0, block_learning_rate=1.0, ema_rate=0.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "curves.csv").read_text().splitlines()[1:]
        ]
        bmuf = [(epoch, fer) for strategy, epoch, fer in rows if strategy == "bmuf"]
        ema = [(epoch, fer) for strategy, epoch, fer in rows if strategy == "ema"]
        assert bmuf == ema


class TestCliCompare:
    def test_summary_output(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "final.csv").write_text(
            "strategy,test_fer\nbmuf,0.2\nma,0.21\nema,0.19\n"
        )
        assert main(["compare", str(run_dir)]) == 0
        out = capsys.readouterr().out
        lines = [line.strip() for line in out.splitlines() if line.strip()]
        assert lines[0] == f"run: {run_dir}"
        assert lines[2].startswith("bmuf") and "0.00%" in lines[2]
        assert lines[3].startswith("ma") and "-5.00%" in lines[3]
        assert lines[4].startswith("ema") and "5.00%" in lines[4]

    def test_equal_strategies_zero_reduction(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "final.csv").write_text(
            "strategy,test_fer\nbmuf,0.5\nma,0.5\nema,0.5\n"
        )
        main(["compare", str(run_dir)])
        out = capsys.readouterr().out
        assert out.count(" 0.00%") == 3

    def test_missing_final_csv_fails(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "nope")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row",
        [
            "bmuf",
            "bmuf,abc",
            "bmuf,0.2,junk",
            "ma,0.3",
            "bmuf,-3",
            "bmuf,1.5",
            "bmuf,nan",
            "foo,0.1",
        ],
    )
    def test_malformed_row_fails(self, tmp_path, capsys, row):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "final.csv").write_text(f"strategy,test_fer\n{row}\nma,0.2\n")
        assert main(["compare", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'final.csv'}: ")
        assert "malformed row" in err


    def test_undecodable_final_csv_fails_naming_the_file(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "final.csv").write_bytes(b"strategy,test_fer\nbmuf,0.2\xff\n")
        assert main(["compare", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'final.csv'}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestArtifacts:
    def test_write_artifacts_layout(self, tmp_path):
        result = run_experiment(TINY, threaded=False)
        write_run_artifacts(result, tmp_path / "out")
        curves = (tmp_path / "out" / "curves.csv").read_text().splitlines()
        # one row per (checkpoint, strategy), ordered by checkpoint then
        # bmuf/ma/ema, decimal-point floats only
        assert curves[1].startswith("bmuf,0.25,")
        assert curves[2].startswith("ma,0.25,")
        assert curves[3].startswith("ema,0.25,")
        for row in curves[1:]:
            assert "," in row and ";" not in row
        manifest = ExperimentConfig.from_file(tmp_path / "out" / "manifest.cfg")
        assert manifest == TINY


def load_seed_sweep():
    path = Path(__file__).resolve().parent.parent / "scripts" / "seed_sweep.py"
    spec = importlib.util.spec_from_file_location("seed_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSeedSweepOverrides:
    def test_values_parse_like_config_files(self):
        sweep = load_seed_sweep()
        overrides = sweep.parse_overrides(["reset_momentum=false", "mlp_hidden=4,5"])
        assert overrides == {"reset_momentum": False, "mlp_hidden": (4, 5)}
        config = sweep.load_configs(["mlp"], overrides)["mlp"]
        assert config.reset_momentum is False

    @pytest.mark.parametrize(
        "item, key", [("bogus=1", "bogus"), ("reset_momentum=maybe", "reset_momentum")]
    )
    def test_bad_override_names_key_and_exits_2(self, item, key, capsys):
        with pytest.raises(SystemExit) as stop:
            load_seed_sweep().main(["--seeds", "1", "--models", "mlp", "--set", item])
        assert stop.value.code == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_duplicate_key_names_key_and_exits_2(self, capsys):
        # a config file rejects a repeated key, so the overrides do too
        with pytest.raises(ConfigError, match="'epochs': duplicate key"):
            load_seed_sweep().parse_overrides(["epochs=1", "epochs=2"])
        with pytest.raises(SystemExit) as stop:
            load_seed_sweep().main(
                ["--seeds", "1", "--models", "mlp", "--set", "epochs=1", "--set", "epochs=2"]
            )
        assert stop.value.code == 2
        assert "'epochs': duplicate key" in capsys.readouterr().err

    def test_seed_override_names_seed_and_exits_2(self, capsys):
        # the sweep replaces the seed with each of its own, so an override
        # would be silently dropped
        with pytest.raises(ConfigError, match="'seed': .*--seeds"):
            load_seed_sweep().parse_overrides(["seed=5"])
        with pytest.raises(SystemExit) as stop:
            load_seed_sweep().main(["--seeds", "1", "--models", "mlp", "--set", "seed=5"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert "'seed'" in captured.err
        assert captured.out == ""

    def test_unknown_model_names_model_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as stop:
            load_seed_sweep().main(["--seeds", "1", "--models", "mlp,gpt"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'gpt'" in err

    def test_config_error_from_run_names_key_and_exits_2(self, capsys):
        # valid on its own; only the run finds more workers than utterances
        with pytest.raises(SystemExit) as stop:
            load_seed_sweep().main(
                ["--seeds", "1", "--models", "mlp", "--set", "num_workers=2000"]
            )
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'num_workers'" in err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_1_exit_2(self, seeds, capsys):
        with pytest.raises(SystemExit) as stop:
            load_seed_sweep().main(["--seeds", seeds, "--models", "mlp"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert "--seeds" in captured.err
        assert captured.out == ""


class TestSeedSweepFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_seeds_reported_and_sweep_continues(self, capsys):
        overrides = ["learning_rate=1e306", "momentum=0.99", "epochs=1"]
        load_seed_sweep().main(
            ["--seeds", "2", "--models", "mlp"] + [a for o in overrides for a in ("--set", o)]
        )
        lines = capsys.readouterr().out.splitlines()
        failures = [line for line in lines if "error: " in line]
        assert [line.split()[0] for line in failures] == ["0", "1"]
        assert all("parameter vector contains non-finite values" in line for line in failures)
        assert "ema_beats_bmuf: 0/2   ema_steadier_than_ma: 0/2" in lines
        assert "failed_seeds: 2/2" in lines

    def test_failed_seed_counts_toward_neither_verdict(self, capsys, monkeypatch):
        sweep = load_seed_sweep()
        results = []

        def seed_0_fails(config, **kw):
            if config.seed == 0:
                raise TrainingError("block 3, worker 2: boom")
            results.append(run_experiment(config, **kw))
            return results[-1]

        monkeypatch.setattr(sweep, "run_experiment", seed_0_fails)
        sweep.main(["--seeds", "2", "--models", "mlp", "--set", "epochs=1"])
        lines = capsys.readouterr().out.splitlines()
        beats, steadier = shadow_verdicts(results[0].final_test_fer, results[0].test_records)
        assert lines[2] == "0     error: block 3, worker 2: boom"
        assert lines[3].startswith("1  ")
        assert f"ema_beats_bmuf: {beats:d}/2   ema_steadier_than_ma: {steadier:d}/2" in lines
        assert "failed_seeds: 1/2" in lines
