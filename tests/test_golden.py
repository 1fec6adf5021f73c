"""Golden fixed-seed outputs of the three release pipelines and the audit.

Each pipeline case runs sample_unbounded, cov_aware_mean and sample_known_cov on one
dataset under a few stream seeds and hashes, with sha256, the released bytes,
both scores and the gate bit. The datasets are generated here from fixed
seeds: clean d=1 data, and d=20 data with an ill-conditioned covariance and
1e6-sigma rows planted in both blocks, enough that the covariance ladder
prunes on many rungs and the gate both passes and fails across the seeds.
A second digest per case hashes each call's whole run trace, as sorted-key
JSON: the reference set, the sizes and the uniformity flags as well.
The corpus case runs the three pipelines on a fresh dataset per call, at
d = 1, 5 and 20, clean and with far rows in both blocks, some offset far
from the origin and some with a singular covariance, and hashes each
call's released bytes and sorted-key trace JSON.
The audit case hashes the JSON lines of three run_checks checks that run
both estimators and the pipelines, at small trial counts. A second audit
case hashes every registry check on its own, in both modes. The plan case
hashes the sorted-key JSON of relaxed_plan(d) for d = 1..299 and of plan
over a grid of (alpha, epsilon, delta, d, c1, c2), so every size and
constant of both plan flavors is pinned. On the same grid's budgets, an
xfail detector checks the gate's leakage against its delta share.
A change that moves any of these bytes must say which bytes and why, and
only then update a digest.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from dpgs.audit import relaxed_plan, reports_to_json_lines, run_checks
from dpgs.privacy import PrivacyParams, gate_leakage, plan
from dpgs.randomness import RngStream
from dpgs.samplers import (
    GATE_DELTA_FRAC,
    GATE_EPS_FRAC,
    cov_aware_mean,
    sample_known_cov,
    sample_unbounded,
)

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


# The corpus: a fresh dataset per call, so branches one fixed dataset never
# reaches are pinned too. Every 7th dataset is offset by 1e9, far enough
# from the origin in whitened units that the neighbor certificate declines
# and the dense matrix decides; at d > 1 every 11th copies one column into
# another, which makes the covariance estimate singular.
CORPUS_DATASETS = 100
CORPUS_OFFSET = 1.0e9
CORPUS_GOLDEN = {
    (1, "clean"): "7df969858c24c24b0fed71f61e8fab0703bfc6617208919418b03b865904ae3e",
    (1, "far"): "c8655b8c0adb20b0be550ab2ff2e39d06001022471e7017709ab2f148a49970f",
    (5, "clean"): "4e4d8b9dbba70c07961f0f47952725ec9317891ac80c333b45fda3b680954ed8",
    (5, "far"): "e12807e06af15750d076135bc6657404aba93b624b3015cc2328179319ed0c44",
    (20, "clean"): "a38f80e543a8efa7881ee07f7254d341b0d59ffa13d15bf99e14b3cf734a1d05",
    (20, "far"): "3138800d47a6987f9fce1dd3d5985f0da039c09aa9a9d2d87d49c74688b75027",
}


def corpus_dataset(sp, kind, i):
    gen = np.random.default_rng([sp.d, kind == "far", i])
    scale = gen.uniform(0.5, 3.0)
    x = 3.0 + scale * gen.standard_normal((sp.n, sp.d))
    known = 3.0 + gen.standard_normal((sp.n1, sp.d))
    if kind == "far":
        plant_far_rows(gen, x, 0, sp.n1, int(gen.integers(1, 6)))
        plant_far_rows(gen, x, sp.n1, sp.n, int(gen.integers(1, 6)))
        plant_far_rows(gen, known, 0, sp.n1, int(gen.integers(1, 6)))
    if i % 7 == 0:
        x += CORPUS_OFFSET
        known += CORPUS_OFFSET
    if sp.d > 1 and i % 11 == 0:
        x[:, 1] = x[:, 0]
        known[:, 1] = known[:, 0]
    return x, known


@pytest.mark.parametrize("d, kind", sorted(CORPUS_GOLDEN))
def test_corpus_matches_golden(d, kind):
    sp = plan(0.2, PARAMS, d)
    h = hashlib.sha256()
    for i in range(CORPUS_DATASETS):
        x, known = corpus_dataset(sp, kind, i)
        runs = (
            sample_unbounded(x, sp, RngStream(i, 1)),
            cov_aware_mean(x, sp.params, sp.lambda0, RngStream(i, 2)),
            sample_known_cov(known, sp, RngStream(i, 3)),
        )
        for result, trace in runs:
            value = b"fail" if result.failed else np.asarray(result.value, dtype="<f8").tobytes()
            h.update(value)
            h.update(json.dumps(trace.to_dict(), sort_keys=True).encode())
    assert h.hexdigest() == CORPUS_GOLDEN[(d, kind)]


AUDIT_TRIALS = {"score_sensitivity": 24, "mean_stability": 12, "end_to_end": 60}
AUDIT_GOLDEN = "5911abda997e7083d3dfb619048f89c7a7dfdfeb32aa16d75f2fefb97ff0972a"


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
    ("tail_facts", "relaxed"): "9827cd0108f523abfed707710c9445e4ee32aa57f362f5955136b3b5f15d619d",
    ("tail_facts", "strict"): "5b55ff122115a1f8bfb9528fe4172f5dc5834a6db6b56193fbff56b54b55b7aa",
    ("end_to_end", "relaxed"): "da22186083396c0b88259d8a0caa697d0920aed7f59d5041174e4dd4cb686def",
    ("end_to_end", "strict"): "bdf2b2d25477fc97173d5930538c4f737c6da5ce709a812d1b26c12e200101de",
}


@pytest.mark.parametrize("name, mode", sorted(CHECK_GOLDEN))
def test_each_check_matches_golden(name, mode):
    lines = reports_to_json_lines(run_checks((name,), mode=mode, trials=CHECK_TRIALS[name]))
    assert hashlib.sha256(lines.encode()).hexdigest() == CHECK_GOLDEN[(name, mode)]


PLAN_GRID = tuple(itertools.product(
    (0.05, 0.2, 0.5),
    ((1.0, 0.05), (0.3, 1e-6), (0.9, 1e-3)),
    (1, 2, 5, 20, 100),
    ((1.0, 1.0), (3.0, 40.0), (1.0, 2640.0)),
))
PLAN_GOLDEN = {
    "relaxed": "91170731a231f31e9773076d42847596b88df740be7881b2f6047db0854d8ee5",
    "plan": "976ce5c88400c42c75ea731709f507d67dc32f0dcbf36405b3748571bb1a19bf",
}


def plan_digest(plans):
    h = hashlib.sha256()
    for sp in plans:
        h.update(json.dumps(sp.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_plans_match_golden():
    digests = {
        "relaxed": plan_digest(relaxed_plan(d) for d in range(1, 300)),
        "plan": plan_digest(
            plan(alpha, PrivacyParams(eps, delta), d, c1, c2)
            for alpha, (eps, delta), d, (c1, c2) in PLAN_GRID
        ),
    }
    assert digests == PLAN_GOLDEN


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: the gate overspends its delta share")
@pytest.mark.parametrize("eps, delta", sorted({params for _, params, _, _ in PLAN_GRID}))
def test_gate_leakage_stays_within_its_delta_share(eps, delta):
    # The gate runs at (eps/3, delta/6); its exact per-bit leakage must fit
    # in that delta/6. It does not on any of the grid's budgets.
    gate = PrivacyParams(eps, delta).split(GATE_EPS_FRAC, GATE_DELTA_FRAC)
    assert gate_leakage(gate) <= delta * GATE_DELTA_FRAC
