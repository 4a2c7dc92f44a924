import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from blocktrain.experiment import run_experiment, write_run_artifacts

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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
