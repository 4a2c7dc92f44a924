import ctypes
import hashlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy
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

# the dispatch class both digest tables were recorded on: OpenBLAS's kernel
# set and numpy's highest enabled SIMD target. Disabling numpy's AVX512_SPR
# and AVX512_ICL targets changes no digest; numpy's X86_V3 loops or
# OpenBLAS's Haswell kernels change last bits
RECORDED_CLASS = "OpenBLAS SkylakeX, numpy AVX512_SPR"


def dispatch_class() -> str:
    """This process's OpenBLAS core and numpy's highest enabled dispatch
    target, in the form of ``RECORDED_CLASS``."""
    core = "unknown"
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if fn is not None:
            fn.restype = ctypes.c_char_p
            core = fn().decode()
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"OpenBLAS {core}, numpy {enabled[-1] if enabled else 'baseline'}"


def digest_class_note() -> str:
    here = dispatch_class()
    return f"dispatch class here: {here}; digests recorded on: {RECORDED_CLASS}"


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
    recorded at commit e8ceff8 with numpy 2.4.6 on scipy-openblas 0.3.31, on
    ``RECORDED_CLASS``; ``src/`` has changed since then, the bytes it writes
    have not. Another numpy or BLAS build, or another dispatch class, may
    change the last bits and so the digests. A mismatch names both classes.
    """
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    config, threaded = load_workloads().make_config(name, reference["seed"])
    result = run_experiment(config, threaded=threaded)
    write_run_artifacts(result, tmp_path)
    data = (tmp_path / "curves.csv").read_bytes() + (tmp_path / "final.csv").read_bytes()
    csv_digest = hashlib.sha256(data).hexdigest()
    assert csv_digest == reference["digests"][name], digest_class_note()
    assert parameter_digest(result) == PARAMETER_DIGESTS[name], digest_class_note()


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
