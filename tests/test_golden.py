"""Golden fixed-seed outputs of the three release pipelines and the audit.

Each pipeline case runs sample_unbounded, cov_aware_mean and sample_known_cov on one
dataset under a few stream seeds and hashes, with sha256, the released bytes,
both scores and the gate bit. The datasets are generated here from fixed
seeds: clean d=1 data, and d=20 data with an ill-conditioned covariance and
1e6-sigma rows planted in both blocks, enough that the covariance ladder
prunes on many rungs and the gate both passes and fails across the seeds.
A second digest per case hashes each call's whole run trace, as sorted-key
JSON: the reference set, the sizes and the uniformity flags as well.
The audit case hashes the JSON lines of three run_checks checks that run
both estimators and the pipelines, at small trial counts. A second audit
case hashes every registry check on its own, in both modes.
A change that moves any of these bytes must say which bytes and why, and
only then update a digest.
"""

import hashlib
import json

import numpy as np
import pytest

from dpgs.audit import reports_to_json_lines, run_checks
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


def trace_digest(runs):
    h = hashlib.sha256()
    for _, trace in runs:
        h.update(json.dumps(trace.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def pipeline_runs(x, known, sp):
    return {
        "sample": [sample_unbounded(x, sp, RngStream(s, 1)) for s in STREAM_SEEDS],
        "mean": [
            cov_aware_mean(x, sp.params, sp.lambda0, RngStream(s, 2)) for s in STREAM_SEEDS
        ],
        "known_cov": [sample_known_cov(known, sp, RngStream(s, 3)) for s in STREAM_SEEDS],
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


TRACE_GOLDEN = {
    "clean-d1": {
        "sample": "71a90854fd0ece53e5dae99cf9b9b5e33eae3f63065c24af312599d46b6dc49e",
        "mean": "583d5bf541500388042721cec2325d5c60552657e4471ea4654d939f1aeb0d17",
        "known_cov": "7c616d564ff8d1bf5c9a9950f0d8270a4469c9cbbabc3e3a89928018efc43cb8",
    },
    "contaminated-d20": {
        "sample": "692ac085a336f738669db7712cce8ef121cbda4351d29d235f6ca84b70d9fa6b",
        "mean": "e508fad4276535f1dae86accbd8fb5358eaa8bc412451b342dd7d8d240ee9470",
        "known_cov": "75d96b1f424a5564be1b576664ec242ffabdfafb63211bf459e54e09473cf097",
    },
}

CASES = pytest.mark.parametrize(
    "name, d, make",
    [("clean-d1", 1, clean_d1), ("contaminated-d20", 20, contaminated_d20)],
)


@CASES
def test_pipeline_outputs_match_golden(name, d, make):
    sp = plan(0.2, PARAMS, d)
    runs = pipeline_runs(*make(sp), sp)
    assert {key: release_digest(r) for key, r in runs.items()} == GOLDEN[name]


@CASES
def test_pipeline_traces_match_golden(name, d, make):
    sp = plan(0.2, PARAMS, d)
    runs = pipeline_runs(*make(sp), sp)
    assert {key: trace_digest(r) for key, r in runs.items()} == TRACE_GOLDEN[name]


AUDIT_TRIALS = {"score_sensitivity": 24, "mean_stability": 12, "end_to_end": 60}
AUDIT_GOLDEN = "eb952189e169a8c3bc0f7bb767ed0170a8cfdc446c034dddae8169a8f3c68fdb"


def test_audit_reports_match_golden():
    lines = "".join(
        reports_to_json_lines(run_checks((name,), trials=trials))
        for name, trials in AUDIT_TRIALS.items()
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == AUDIT_GOLDEN


CHECK_TRIALS = {
    "score_sensitivity": 24,
    "cov_stability": 12,
    "mean_stability": 12,
    "utility_events": 8,
    "density_lemmas": None,
    "matrix_bounds": 12,
    "tail_facts": 10_000,
    "end_to_end": 60,
}
CHECK_GOLDEN = {
    ("score_sensitivity", "relaxed"): "e95717b20bdd5a9b1817f7f9437cfcb621ada9fc80b574457b293c964384f117",
    ("score_sensitivity", "strict"): "3e14bed4913a6824aef77d408c53a54ddecdfe27b3b7ecd518d691bad575622c",
    ("cov_stability", "relaxed"): "a472c64f8f7acac55992671b9b76e747016b207f7e20e9e439905b6e482ea981",
    ("cov_stability", "strict"): "efb0c168d66c41e7e0257fbc54ba9ddf7ada384bb0d27a094daa094e37484974",
    ("mean_stability", "relaxed"): "066d01a0e6c9efb646567e129640b80f05f70011c9e80355a3df470014eea8a0",
    ("mean_stability", "strict"): "8f0110f687e627d5de36ba5133bc42db63376b8edecaaa5da268fe9c0b754280",
    ("utility_events", "relaxed"): "7abc97eb9abd9b9cd1db5688ddbb50e42932ed99d0b0d7a47f6a8586f420a661",
    ("utility_events", "strict"): "2f3c8e34176fd3b8ce9e9456e1b4f9c7f05231ac0f0d7ce7e2daf281d31662ef",
    ("density_lemmas", "relaxed"): "017ad6a4412726f334a28b5c99df81f35edf04ca2135d0178d041aeda4a620cb",
    ("density_lemmas", "strict"): "446d95a0004f05a8399ded35802ff143cf652f84fefad23f64f0fc66857f783c",
    ("matrix_bounds", "relaxed"): "c6e05632ae4a727178dc1937c2fa08e5676025af08d2456032a9804a836b5ed0",
    ("matrix_bounds", "strict"): "8b3acaad7311cb102df1c924875a2402d6fd195563417d08439c900bfd7a6171",
    ("tail_facts", "relaxed"): "27394ec2b8fff86aeda3f28b377f8afba31b62370557fdf99392ef0fe15eec5f",
    ("tail_facts", "strict"): "106c302b004413f321696c7414ca50fc7fed3c66c065cf42e886f59ba2254297",
    ("end_to_end", "relaxed"): "72a1f4e2b2c8f1ebc2a1b031c5cf2b7763858ebbcfbbf2b1e3afcfbcb44f11fb",
    ("end_to_end", "strict"): "9c0ba72016ce12f51ba3f8ee232ff024ed94c7d1c0afb454e6189c381d4cd652",
}


@pytest.mark.parametrize("name, mode", sorted(CHECK_GOLDEN))
def test_each_check_matches_golden(name, mode):
    lines = reports_to_json_lines(run_checks((name,), mode=mode, trials=CHECK_TRIALS[name]))
    assert hashlib.sha256(lines.encode()).hexdigest() == CHECK_GOLDEN[(name, mode)]
