"""Differential test: noisy trajectories must reproduce committed digests.

Each case runs one optimizer on one problem under one schedule for three
seeds with noise on, and hashes everything a run records (every float64
log column at every step, the final iterate, the no-move steps, the
invariant events and the maximal displacement). The digests in
``golden/trajectory_digests.json`` pin the stochastic dynamics bit for bit,
so a refactor of the step rules or the runner that changes any rounding
fails here. The JSON file is never regenerated to make this test pass.
The digests hash the three seeds run together, in one process and split
between two; a further test checks that each seed of that batch equals the
seed run alone.

To print the digests of the current code (for inspection only):

    PYTHONPATH=src python tests/test_trajectory_digests.py
"""

import dataclasses
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from nigt_lab.harness import RunConfig, run
from nigt_lab.optimizers import LayerPartition, Schedule
from nigt_lab.problems import (
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
    with_constants,
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

# the float64 log columns of a TrajectoryRecord, in the order the digests hash them
RECORD_COLUMNS = ("eta", "alpha", "m_norm", "f_val", "grad_norm", "mhat_err", "descent_residual")

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
        pb = with_constants(pb, g_bound=ADAPTIVE_G_BOUND)
    if opt == "nigt_layerwise":
        if pb.dim >= 2:
            half = pb.dim // 2
            extra["partition"] = LayerPartition(ranges=((0, half), (half, pb.dim)), lr_scale=(1.0, 0.5))
        else:
            extra["partition"] = LayerPartition(ranges=((0, pb.dim),), lr_scale=(1.0,))
    eta = None if opt == "nigt_adaptive" else ETA  # the self-tuning method takes no rate
    return RunConfig(problem=pb, optimizer_id=opt, T=T, seeds=SEEDS, eta=eta, beta=BETA,
                     schedule=SCHEDULES[sch], **extra)


def _f64(h, x) -> None:
    if x is None:
        h.update(b"N")
    else:
        h.update(struct.pack("<d", float(x)))


def record_digest(rec) -> str:
    h = hashlib.sha256()
    cols = [getattr(rec, name) for name in RECORD_COLUMNS]
    for i in range(len(rec.eta)):
        h.update(struct.pack("<q?", i + 1, bool(rec.no_move[i])))
        for col in cols:
            _f64(h, None if col is None else col[i])
    h.update(b"|final_w|")
    for x in rec.final_w:
        _f64(h, x)
    h.update(b"|no_move|" + ",".join(str(i + 1) for i in np.flatnonzero(rec.no_move)).encode())
    h.update(b"|violations|")
    for e in rec.invariant_violations:
        h.update(f"{e.kind}:{e.t}:".encode())
        _f64(h, e.value)
        _f64(h, e.limit)
    h.update(b"|max_displacement|")
    _f64(h, rec.max_displacement)
    return h.hexdigest()


def case_digests(kind: str, opt: str, sch: str) -> dict:
    return {str(rec.seed): record_digest(rec) for rec in run(_config(kind, opt, sch))}


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


@pytest.mark.parametrize("kind,opt,sch", CASES, ids=[case_key(*c) for c in CASES])
def test_trajectory_digest_of_a_split_run(golden, split, kind, opt, sch):
    # seed 1 here, seeds 2 and 3 in a forked child: the same digests
    assert case_digests(kind, opt, sch) == golden[case_key(kind, opt, sch)]
    assert len(split) == 1


def records_identical(a, b) -> bool:
    """Bit-for-bit equality of everything two records hold."""
    def same(x, y):
        if x is None or y is None:
            return x is None and y is None
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    return (
        all(same(getattr(a, name), getattr(b, name)) for name in RECORD_COLUMNS + ("no_move", "final_w"))
        and a.invariant_violations == b.invariant_violations
        and a.max_displacement == b.max_displacement
    )


@pytest.mark.parametrize("kind,opt,sch", CASES, ids=[case_key(*c) for c in CASES])
def test_batch_equals_seeds_alone(kind, opt, sch):
    cfg = _config(kind, opt, sch)
    for rec in run(cfg):
        alone = run(dataclasses.replace(cfg, seeds=(rec.seed,)))[0]
        assert records_identical(rec, alone)


if __name__ == "__main__":
    print(json.dumps({case_key(*c): case_digests(*c) for c in CASES}, indent=1, sort_keys=True))
