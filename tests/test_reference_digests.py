import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from blocktrain.experiment import run_experiment, write_run_artifacts

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lstm", "mlp_wide", "mlp_threaded"])
def test_workload_matches_reference_digest(name, tmp_path):
    """The benchmark workload's ``curves.csv`` + ``final.csv`` bytes equal
    the digest in ``perfbench/reference.json``.

    The benchmark counts a run whose bytes differ as failed, the same as a
    crash; this pins those bytes in the test suite, so a change that alters
    them fails here before it reaches the benchmark.
    """
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    config, threaded = load_workloads().make_config(name, reference["seed"])
    write_run_artifacts(run_experiment(config, threaded=threaded), tmp_path)
    data = (tmp_path / "curves.csv").read_bytes() + (tmp_path / "final.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == reference["digests"][name]
