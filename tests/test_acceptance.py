"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen (without ``-s`` pytest shows them for failing tests only).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from blocktrain.cli import main
from blocktrain.cluster import decentralized_aggregate, make_shard_plan
from blocktrain.experiment import ExperimentConfig, run_experiment, shadow_study
from blocktrain.models import Batch, LstmSpec, MlpSpec, backward, init_params
from blocktrain.numerics import ParamVector, make_rng, mean_reduce
from blocktrain.sync import ShadowState, SyncState, bmuf_apply, shadow_update

from .oracles import finite_difference_gradient, max_rel_err

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MLP_CONFIG = ExperimentConfig.from_file(CONFIG_DIR / "default_mlp.cfg")
LSTM_CONFIG = ExperimentConfig.from_file(CONFIG_DIR / "default_lstm.cfg")


@contextmanager
def verdict(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[acceptance] {number:02d} {name}: PASS ({time.perf_counter() - start:.1f}s)")


def pv(values):
    return ParamVector(np.asarray(values, dtype=float))


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One threaded run of the default config, shared by criteria 8 and 10."""
    out = tmp_path_factory.mktemp("default_run")
    code = main(
        ["run", "--config", str(CONFIG_DIR / "default_mlp.cfg"), "--out", str(out)]
    )
    assert code == 0
    return out


def test_01_degenerate_bmuf_equals_model_averaging():
    """With block momentum 0 and block learning rate 1 the filtered update
    must reproduce plain model averaging bit for bit, whatever the state.
    """
    with verdict(1, "degenerate filtered update == model averaging (bitwise)"):
        grid = [(n, length) for n in (1, 2, 8) for length in (1, 17, 1000)]
        for case in range(100):
            n, length = grid[case % len(grid)]
            rng = np.random.default_rng(case)
            locals_ = [pv(rng.normal(size=length)) for _ in range(n)]
            state = SyncState(
                global_model=pv(rng.normal(size=length)),
                delta=pv(rng.normal(size=length)),  # stale accumulator must not leak
                block_momentum=0.0,
                block_learning_rate=1.0,
                block_index=case,
            )
            after = bmuf_apply(state, mean_reduce(locals_))
            average = mean_reduce(locals_)
            assert after.global_model.values.tobytes() == average.values.tobytes()


def test_02_decentralized_transport_equals_centralized_mean():
    with verdict(2, "sharded aggregation == centralized mean (bitwise)"):
        shapes = [(1, 1), (2, 7), (3, 10), (8, 64), (8, 3), (13, 5), (4, 2), (8, 1000)]
        for case in range(100):
            n, length = shapes[case % len(shapes)]
            rng = np.random.default_rng(1000 + case)
            models = [pv(rng.normal(size=length)) for _ in range(n)]
            plan = make_shard_plan(length, n)
            if length < n:  # the tail shards are genuinely empty
                assert plan.range_of(n - 1)[0] == plan.range_of(n - 1)[1]
            got = decentralized_aggregate(models, plan)
            want = mean_reduce(models)
            assert got.values.tobytes() == want.values.tobytes()


def test_03_shadows_do_not_interfere_with_training():
    """A 2-epoch run with shadow models enabled must produce exactly the
    global-model trajectory of the same run with shadows disabled.
    """
    with verdict(3, "shadow averagers never touch the trajectory (bitwise)"):
        config = ExperimentConfig(**{**MLP_CONFIG.__dict__, "epochs": 2})
        with_shadows = run_experiment(
            config, threaded=False, shadows_enabled=True, record_trajectory=True
        )
        without = run_experiment(
            config, threaded=False, shadows_enabled=False, record_trajectory=True
        )
        assert len(with_shadows.trajectory) == len(without.trajectory) > 0
        for a, b in zip(with_shadows.trajectory, without.trajectory):
            assert a.values.tobytes() == b.values.tobytes()


def test_04_analytic_gradients_match_finite_differences():
    with verdict(4, "analytic gradients vs central differences (rel err <= 1e-5)"):
        worst = 0.0
        for seed in range(20):
            rng = make_rng(seed)
            for spec, dim, classes, lengths in (
                (MlpSpec((8, 6, 4)), 8, 4, ()),
                (LstmSpec(6, 5, 1, 3), 6, 3, (5, 5)),
            ):
                batch = Batch(
                    rng.normal(size=(10, dim)), rng.integers(classes, size=10), lengths
                )
                params = init_params(spec, rng)
                _, grad = backward(spec, params, batch)
                numeric = finite_difference_gradient(spec, params, batch, step=1e-5)
                worst = max(worst, max_rel_err(grad, numeric))
        assert worst <= 1e-5, f"worst relative error {worst}"


def test_05_incremental_running_mean_matches_stored_history():
    with verdict(5, "incremental MA == stored-history mean (1e-12, 1e4 syncs)"):
        rng = np.random.default_rng(7)
        start = pv(rng.normal(size=32))
        shadow = ShadowState.initial(start, ema_rate=0.9)
        history = np.empty((10_000, 32))
        for t in range(10_000):
            theta = rng.normal(size=32)
            history[t] = theta
            shadow = shadow_update(shadow, pv(theta))
        direct = history.mean(axis=0)
        np.testing.assert_allclose(shadow.ma_model.values, direct, rtol=0, atol=1e-12)


def test_06_ema_stays_inside_observed_envelope():
    with verdict(6, "EMA convex containment (1e4 syncs x 5 rates)"):
        for alpha in (0.0, 0.5, 0.9, 0.99, 1.0):
            rng = np.random.default_rng(int(alpha * 100) + 11)
            start = rng.normal(size=16)
            shadow = ShadowState.initial(pv(start), ema_rate=alpha)
            lo = start.copy()
            hi = start.copy()
            for _ in range(10_000):
                theta = rng.normal(size=16) * 3.0
                lo = np.minimum(lo, theta)
                hi = np.maximum(hi, theta)
                shadow = shadow_update(shadow, pv(theta))
                assert np.all(shadow.ema_model.values >= lo)
                assert np.all(shadow.ema_model.values <= hi)


def test_07_filtered_update_decays_geometrically_without_progress():
    """After one displaced block, workers that echo the broadcast back give
    zero raw update, so the accumulator must follow eta^(t-1) * delta(1).
    """
    with verdict(7, "block-momentum geometric decay (1e-12, t <= 50)"):
        rng = np.random.default_rng(3)
        for eta in (0.5, 0.9, 0.99):
            theta0 = rng.normal(size=12)
            state = SyncState.initial(pv(theta0), eta, 1.0)
            state = bmuf_apply(state, mean_reduce([pv(theta0 + rng.normal(size=12))]))
            delta1 = state.delta.values.copy()
            for t in range(2, 51):
                state = bmuf_apply(state, mean_reduce([state.global_model]))
                closed_form = eta ** (t - 1) * delta1
                np.testing.assert_allclose(
                    state.delta.values, closed_form, rtol=0, atol=1e-12
                )


def test_08_same_seed_same_bytes_in_both_modes(default_run, tmp_path):
    with verdict(8, "byte-identical curves.csv across reruns and modes"):
        runs = {"threaded_again": [], "serial_a": ["--single-thread"], "serial_b": ["--single-thread"]}
        baseline = (default_run / "curves.csv").read_bytes()
        for name, extra in runs.items():
            out = tmp_path / name
            code = main(
                ["run", "--config", str(CONFIG_DIR / "default_mlp.cfg"), "--out", str(out)]
                + extra
            )
            assert code == 0
            assert (out / "curves.csv").read_bytes() == baseline, name


def test_09_final_model_quality_and_curve_steadiness():
    """Ten-seed comparison on both default configs. (a) the exponential
    shadow's final test FER beats or ties the raw global model's in at least
    7/10 seeds; (b) its per-checkpoint test-FER curve has a smaller standard
    deviation than the running mean's in at least 7/10 seeds (the running
    mean drags its start-up transient across the whole run).
    """
    with verdict(9, "EMA beats raw final model and out-steadies MA (>= 7/10 seeds)"):
        for config in (MLP_CONFIG, LSTM_CONFIG):
            study = shadow_study(config, range(10))
            errors = [str(run) for run in study.runs if isinstance(run, Exception)]
            assert not errors, f"{config.model}: failed seeds {errors}"
            final_wins = study.ema_beats_bmuf
            steadiness_wins = study.ema_steadier_than_ma
            print(
                f"    {config.model}: final ema<=bmuf {final_wins}/10, "
                f"ema steadier than ma {steadiness_wins}/10"
            )
            assert final_wins >= 7, f"{config.model}: only {final_wins}/10 final wins"
            assert steadiness_wins >= 7, (
                f"{config.model}: only {steadiness_wins}/10 steadiness wins"
            )


def test_10_default_run_emits_16_checkpoints_times_3_strategies(default_run):
    with verdict(10, "4 checkpoints x 4 epochs x 3 strategies = 48 curve rows"):
        lines = (default_run / "curves.csv").read_text().splitlines()
        assert lines[0] == "strategy,epoch,fer"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 48
        epochs = sorted({float(r[1]) for r in rows})
        assert epochs == [0.25 * k for k in range(1, 17)]
        for epoch in epochs:
            strategies = [r[0] for r in rows if float(r[1]) == epoch]
            assert strategies == ["bmuf", "ma", "ema"]
