"""Golden fixed-seed outputs of the three release pipelines.

Each case runs sample_unbounded, cov_aware_mean and sample_known_cov on one
dataset under a few stream seeds and hashes, with sha256, the released bytes,
both scores and the gate bit. The datasets are generated here from fixed
seeds: clean d=1 data, and d=20 data with an ill-conditioned covariance and
1e6-sigma rows planted in both blocks, enough that the covariance ladder
prunes on many rungs and the gate both passes and fails across the seeds.
A change that moves any of these bytes must say which bytes and why, and
only then update a digest.
"""

import hashlib
import json

import numpy as np
import pytest

from dpgs.privacy import PrivacyParams, plan
from dpgs.randomness import RngStream
from dpgs.samplers import cov_aware_mean, sample_known_cov, sample_unbounded

PARAMS = PrivacyParams(1.0, 0.05)
STREAM_SEEDS = range(4)
FAR = 1.0e6


def plant_far_rows(gen, z, lo, hi, count):
    for row in gen.choice(np.arange(lo, hi), size=count, replace=False):
        u = gen.standard_normal(z.shape[1])
        z[row] += FAR * u / np.linalg.norm(u)


def clean_d1(sp):
    """All n rows for the two unknown-covariance pipelines, and an
    identity-covariance mean block for sample_known_cov."""
    gen = np.random.default_rng(2024)
    x = 3.0 + np.sqrt(2.0) * gen.standard_normal((sp.n, 1))
    return x, 3.0 + gen.standard_normal((sp.n1, 1))


def contaminated_d20(sp):
    gen = np.random.default_rng(2025)
    d = sp.d
    z = gen.standard_normal((sp.n, d))
    plant_far_rows(gen, z, 0, sp.n1, 3)
    plant_far_rows(gen, z, sp.n1, sp.n, 14)
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    factor = q * np.sqrt(np.logspace(0.0, 2.0, d))
    known = gen.standard_normal((sp.n1, d))
    plant_far_rows(gen, known, 0, sp.n1, 2)
    return 1.0e3 + z @ factor.T, 1.0e3 + known


def release_digest(runs):
    h = hashlib.sha256()
    for result, trace in runs:
        value = b"fail" if result.failed else np.asarray(result.value, dtype="<f8").tobytes()
        h.update(value)
        h.update(json.dumps([trace.score_cov, trace.score_mean, trace.ptr.value]).encode())
    return h.hexdigest()


def pipeline_digests(x, known, sp):
    return {
        "sample": release_digest(
            sample_unbounded(x, sp, RngStream(s, 1)) for s in STREAM_SEEDS
        ),
        "mean": release_digest(
            cov_aware_mean(x, sp.params, sp.lambda0, RngStream(s, 2)) for s in STREAM_SEEDS
        ),
        "known_cov": release_digest(
            sample_known_cov(known, sp, RngStream(s, 3)) for s in STREAM_SEEDS
        ),
    }


GOLDEN = {
    "clean-d1": {
        "sample": "46412d107b91486ea187dc1520e9020950bdbf2c28c9687df3244e4c11a50c86",
        "mean": "5e8940c6096984a2343c9dcd531423a08ee8964991819554fca0ecfc815e0115",
        "known_cov": "790ac95edcaf126712ce40ecc04397fc94119134cb7db1fdc98607a123b1659a",
    },
    "contaminated-d20": {
        "sample": "a1c2ad08fb0a59f6905d85e30a9c5cde38840108d2e4f4e2a2e409e64ec44056",
        "mean": "c1ccaee70a7399a8c0f7334f1f4e30c97f5c7be27ab32c4664191446408c1cab",
        "known_cov": "976e65216d59f11ed663ffb361de6a67522ae5aba123c2d8557084d457a95f7b",
    },
}


@pytest.mark.parametrize(
    "name, d, make",
    [("clean-d1", 1, clean_d1), ("contaminated-d20", 20, contaminated_d20)],
)
def test_pipeline_outputs_match_golden(name, d, make):
    sp = plan(0.2, PARAMS, d)
    assert pipeline_digests(*make(sp), sp) == GOLDEN[name]
