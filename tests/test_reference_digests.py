import hashlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from blocktrain.experiment import ExperimentConfig, run_experiment, write_run_artifacts

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# sha256 of the final global_model + delta + ma_model + ema_model bytes of each
# workload at the reference seed
PARAMETER_DIGESTS = {
    "lstm": "7e13524683204cf0f79095ac54ba0f6d8cf1645361f3bfe54a35e15a53b109a8",
    "mlp_wide": "80738f7c50e243b9f0dd44334d127fa93660a4fcd05c1542b22a61517b4ed37f",
    "mlp_threaded": "03a49d96fdd9544576b86d5728d0d27a491753708bf9fc37206b3b37bc3b3e7f",
}


def load_workloads():
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def parameter_digest(result) -> str:
    sync, shadow = result.sync_state, result.shadow_state
    models = (sync.global_model, sync.delta, shadow.ma_model, shadow.ema_model)
    return hashlib.sha256(b"".join(m.values.tobytes() for m in models)).hexdigest()


@pytest.mark.parametrize("name", ["lstm", "mlp_wide", "mlp_threaded"])
def test_workload_matches_reference_digest(name, tmp_path):
    """The benchmark workload's ``curves.csv`` + ``final.csv`` bytes equal
    the digest in ``perfbench/reference.json``, and its final parameter
    bytes equal ``PARAMETER_DIGESTS``.

    The benchmark counts a run whose bytes differ as failed, the same as a
    crash; this pins those bytes in the test suite, so a change that alters
    them fails here before it reaches the benchmark. The FER values in the
    CSV files do not see last-bit changes in the parameters, so the final
    global, accumulator and shadow models are hashed too. Those digests were
    recorded at commit e8ceff8 (``src/`` unchanged since 30428e4) with numpy
    2.4.6 on scipy-openblas 0.3.31; another numpy or BLAS build may change
    the last bits and so the parameter digests.
    """
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    config, threaded = load_workloads().make_config(name, reference["seed"])
    result = run_experiment(config, threaded=threaded)
    write_run_artifacts(result, tmp_path)
    data = (tmp_path / "curves.csv").read_bytes() + (tmp_path / "final.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == reference["digests"][name]
    assert parameter_digest(result) == PARAMETER_DIGESTS[name]


def test_lstm_artifacts_agree_across_modes(tmp_path):
    """One epoch of the default LSTM config gives the same ``curves.csv`` +
    ``final.csv`` bytes and the same final parameter bytes serial
    decentralized, serial centralized and threaded decentralized."""
    config = replace(
        ExperimentConfig.from_file(ROOT / "configs" / "default_lstm.cfg"), epochs=1
    )
    outcomes = {}
    for transport, threaded in (
        ("decentralized", False),
        ("centralized", False),
        ("decentralized", True),
    ):
        name = f"{transport}-{'threaded' if threaded else 'serial'}"
        result = run_experiment(replace(config, transport=transport), threaded=threaded)
        write_run_artifacts(result, tmp_path / name)
        data = b"".join(
            (tmp_path / name / f).read_bytes() for f in ("curves.csv", "final.csv")
        )
        outcomes[name] = (data, parameter_digest(result))
    baseline = outcomes.pop("decentralized-serial")
    for name, outcome in outcomes.items():
        assert outcome == baseline, name
