"""Bit-level pins for the per-iteration (stochastic and phased) app loops.

The golden pins hold simulated times to ``rel=1e-6``, which cannot tell a
reordered addition from the original.  These pins hold the two loops that
drive a machine superstep by superstep — :meth:`AppModel.run` with OS
noise and/or rate jitter, and :meth:`PhasedApp.run` — to the bit: each
:class:`~repro.simmpi.tracing.RankTrace` array is reduced to the sha256
of its little-endian float64 bytes.  Any change to the order of the
floating-point operations or of the RNG draws changes a digest.
"""

import hashlib

import numpy as np
import pytest

from repro.apps.phases import GMRES_LIKE
from repro.apps.registry import get_app

FMAX = 2.7
N_RANKS = 64
ITERS = 30
FIELDS = ("total_s", "compute_s", "wait_s", "comm_s")


def digests(trace) -> dict[str, str]:
    return {
        f: hashlib.sha256(
            np.ascontiguousarray(getattr(trace, f), dtype="<f8").tobytes()
        ).hexdigest()[:16]
        for f in FIELDS
    }


def rates(seed: int, shape=(N_RANKS,)) -> np.ndarray:
    return 1.8 + np.random.default_rng(seed).uniform(0.0, 0.9, shape)


SETTINGS = {
    "noise": dict(noise_frac=0.004),
    "jitter": dict(rate_jitter_frac=0.03),
    "both": dict(noise_frac=0.004, rate_jitter_frac=0.03),
}

STOCHASTIC_PINS = {
    ("mhd", "noise"): {
        "total_s": "a87774373d787b36",
        "compute_s": "e5e21f30c4ca3b03",
        "wait_s": "08057bd852695fd0",
        "comm_s": "e5a6aede93e6ea74",
    },
    ("mhd", "jitter"): {
        "total_s": "5cb8760af3ae94fb",
        "compute_s": "ed98067523f2c74c",
        "wait_s": "fa35b9ec8320e44f",
        "comm_s": "e5a6aede93e6ea74",
    },
    ("mhd", "both"): {
        "total_s": "e16df15afe9137f8",
        "compute_s": "1e94d9634dfdf9ba",
        "wait_s": "6451f506b36e1243",
        "comm_s": "e5a6aede93e6ea74",
    },
    ("mvmc", "noise"): {
        "total_s": "935f74a7be64846a",
        "compute_s": "e5b23832b92c92eb",
        "wait_s": "4982111191134ac6",
        "comm_s": "032397c4c7e46539",
    },
    ("mvmc", "jitter"): {
        "total_s": "13e65230137e6451",
        "compute_s": "8da7f331fdd28702",
        "wait_s": "5be96529d1385b24",
        "comm_s": "032397c4c7e46539",
    },
    ("mvmc", "both"): {
        "total_s": "54fd5a1690bced6f",
        "compute_s": "6e4aa749377bbe59",
        "wait_s": "457c20100d5327bb",
        "comm_s": "032397c4c7e46539",
    },
}

PHASED_PIN = {
    "total_s": "55936c748fec1b84",
    "compute_s": "ee138e807885bdd5",
    "wait_s": "f5578ed7fcd5a7d6",
    "comm_s": "f1c8125177fd3e49",
}


def run_stochastic(app_name: str, setting: str):
    kw = dict(SETTINGS[setting])
    if "noise_frac" in kw:
        kw["noise_rng"] = np.random.default_rng(11)
    if "rate_jitter_frac" in kw:
        kw["jitter_rng"] = np.random.default_rng(12)
    return get_app(app_name).run(rates(3), FMAX, n_iters=ITERS, **kw)


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("app_name", ["mhd", "mvmc"])
def test_stochastic_loop_digests(app_name, setting):
    assert digests(run_stochastic(app_name, setting)) == STOCHASTIC_PINS[
        (app_name, setting)
    ]


def test_phased_loop_digests():
    trace = GMRES_LIKE.run(
        rates(5, (len(GMRES_LIKE.phases), N_RANKS)), FMAX, n_iters=ITERS
    )
    assert digests(trace) == PHASED_PIN
