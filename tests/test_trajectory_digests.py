"""Differential test: noisy trajectories must reproduce committed digests.

Each case runs one optimizer on one problem under one schedule for three
seeds with noise on, and hashes everything a run records (every float64
field of every step log, the final iterate, the no-move steps, the
invariant events and the maximal displacement). The digests in
``golden/trajectory_digests.json`` pin the stochastic dynamics bit for bit,
so a refactor of the step rules or the runner that changes any rounding
fails here. The JSON file is never regenerated to make this test pass.

To print the digests of the current code (for inspection only):

    PYTHONPATH=src python tests/test_trajectory_digests.py
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import pytest

from nigt_lab.harness import RunConfig, run_single
from nigt_lab.optimizers import LayerPartition, Schedule
from nigt_lab.problems import (
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
)

GOLDEN = Path(__file__).parent / "golden" / "trajectory_digests.json"

T = 300
SEEDS = (1, 2, 3)
ETA, BETA = 0.01, 0.9
ADAPTIVE_G_BOUND = 3.0  # used where the problem's own bound is infinite

PROBLEMS = {
    "noisy_quadratic": lambda: make_noisy_quadratic(4, [1.0, 2.0, 3.0, 4.0], 0.5),
    "sign_noise": lambda: make_sign_noise(0.25),
    "trig_bowl": lambda: make_trig_bowl(4, 1.0, 1.0, 0.5),
    "streaming_least_squares": lambda: make_streaming_least_squares(4, [1.0, 2.0, 3.0, 4.0], 0.5),
}

SCHEDULES = {
    "constant": Schedule(),
    "warmup_decay": Schedule(kind="warmup_poly_decay", warmup_steps=30, power=2),
    "weight_norm": Schedule(weight_norm_scaling=True),
}

OPTIMIZERS = ("sgd", "heavy_ball", "nsgdm", "nigt", "nigt_adaptive", "nigt_layerwise")

# the self-tuning method sets its own rates, so it runs the constant schedule only
CASES = [
    (kind, opt, sch)
    for kind in PROBLEMS
    for opt in OPTIMIZERS
    for sch in SCHEDULES
    if opt != "nigt_adaptive" or sch == "constant"
]


def _config(kind: str, opt: str, sch: str) -> RunConfig:
    pb = PROBLEMS[kind]()
    extra = {}
    if opt == "nigt_adaptive" and math.isinf(pb.g_bound):
        extra["g_bound"] = ADAPTIVE_G_BOUND
    if opt == "nigt_layerwise":
        if pb.dim >= 2:
            half = pb.dim // 2
            extra["partition"] = LayerPartition(ranges=((0, half), (half, pb.dim)), lr_scale=(1.0, 0.5))
        else:
            extra["partition"] = LayerPartition(ranges=((0, pb.dim),), lr_scale=(1.0,))
    return RunConfig(problem=pb, optimizer_id=opt, T=T, seeds=SEEDS, eta=ETA, beta=BETA,
                     schedule=SCHEDULES[sch], **extra)


def _f64(h, x) -> None:
    if x is None:
        h.update(b"N")
    else:
        h.update(struct.pack("<d", float(x)))


def record_digest(rec) -> str:
    h = hashlib.sha256()
    for s in rec.steps:
        h.update(struct.pack("<q?", s.t, s.no_move))
        for x in (s.eta, s.alpha, s.m_norm, s.f_val, s.grad_norm, s.mhat_err, s.descent_residual):
            _f64(h, x)
    h.update(b"|final_w|")
    for x in rec.final_w:
        _f64(h, x)
    h.update(b"|no_move|" + ",".join(str(t) for t in rec.no_move_steps).encode())
    h.update(b"|violations|")
    for e in rec.invariant_violations:
        h.update(f"{e.kind}:{e.t}:".encode())
        _f64(h, e.value)
        _f64(h, e.limit)
    h.update(b"|max_displacement|")
    _f64(h, rec.max_displacement)
    return h.hexdigest()


def case_digests(kind: str, opt: str, sch: str) -> dict:
    cfg = _config(kind, opt, sch)
    return {str(seed): record_digest(run_single(cfg, seed)) for seed in cfg.seeds}


def case_key(kind: str, opt: str, sch: str) -> str:
    return f"{kind}/{opt}/{sch}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*c) for c in CASES)


@pytest.mark.parametrize("kind,opt,sch", CASES, ids=[case_key(*c) for c in CASES])
def test_trajectory_digest(golden, kind, opt, sch):
    assert case_digests(kind, opt, sch) == golden[case_key(kind, opt, sch)]


if __name__ == "__main__":
    print(json.dumps({case_key(*c): case_digests(*c) for c in CASES}, indent=1, sort_keys=True))
