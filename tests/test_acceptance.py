"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test prints ``ACCEPTANCE <nn> <name>: PASS|FAIL`` on the real stdout
(bypassing capture) before asserting, so a full run always shows one line
per criterion.  Tolerances and runtime budgets are pinned in each test.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vulforge import synth
from vulforge.codefeat import FeaturizerConfig
from vulforge.core import PredictionSet
from vulforge.ensembles import (
    BaggingEnsemble,
    BoostConfig,
    BoostEnsemble,
    DgsConfig,
    _boost_step,
    adaboost_fit,
    adaboost_predict_set,
    bagging_combine,
    bagging_from_predictions,
    bagging_predict_set,
    dgs_fit,
    dgs_predict_set,
    gate_scores,
    stacking_fit,
    stacking_predict_set,
)
from vulforge.ingest import bootstrap, stratified_split
from vulforge.learners import BaseLearnerSpec, LearnerConfig, featurize_dataset
from vulforge.metamodels import META_KINDS
from vulforge.metrics import (
    average_rank,
    binary_metrics,
    f1_score,
    overlap_regions,
    weighted_metrics,
)
from vulforge._kernels import (
    dense_softmax_loss_grad,
    hinge_objective,
    hinge_subgradient,
)

DATA = Path(__file__).parent / "data" / "published_results.json"
FC = FeaturizerConfig(1 << 14, (1, 2))

#: Published average-rank table (method -> [accuracy, precision, recall, f1]).
PUBLISHED_AVERAGE_RANKS = {
    "wo": [4.07, 4.13, 4.07, 4.27],
    "bagh": [3.67, 4.07, 3.60, 3.80],
    "bags": [2.60, 2.60, 3.07, 2.73],
    "boost": [2.20, 2.20, 1.87, 1.60],
    "stack": [1.47, 1.53, 1.87, 1.87],
}
METHODS = ("wo", "bagh", "bags", "boost", "stack")
METRICS = ("accuracy", "precision", "recall", "f1")


# Collected verdict lines; conftest prints them in the terminal summary so
# they survive pytest's fd-level output capture.
VERDICTS: list[str] = []


def _verdict(num: int, name: str, ok: bool) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _load_rows():
    fixture = json.loads(DATA.read_text())
    rows = []
    for dataset, models in fixture.items():
        for model, methods in models.items():
            for method, (acc, p, r, f1) in methods.items():
                rows.append((dataset, model, method, acc, p, r, f1))
    return rows


# ---------------------------------------------------------------------------
# 1. F1 identity on the published results fixture
# ---------------------------------------------------------------------------

def test_01_f1_identity_on_published_rows():
    t0 = time.time()
    rows = _load_rows()
    assert len(rows) == 75
    mismatches = []
    for dataset, model, method, _, p, r, f1 in rows:
        if dataset == "BigVul":
            # weighted multi-class rows: W-F1 is a support-weighted average of
            # per-class F1 values, not the harmonic mean of W-P and W-R, so
            # only the upper bound W-F1 <= max(W-P, W-R) is checkable
            if f1 > max(p, r) + 0.01:
                mismatches.append((dataset, model, method, f1, "bound"))
        else:
            computed = 100.0 * f1_score(p / 100.0, r / 100.0)
            if abs(computed - f1) > 0.01:
                mismatches.append((dataset, model, method, f1, round(computed, 4)))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 1.0
    _verdict(1, "f1-identity", ok)
    assert elapsed < 1.0
    # One published binary row is internally inconsistent: its own P and R do
    # not reproduce its printed F1 within the pinned tolerance.  The identity
    # is asserted for every binary row regardless; the failure is expected and
    # documented outside the package.
    assert not mismatches, f"F1 identity violated on rows: {mismatches}"


# ---------------------------------------------------------------------------
# 2. average-rank table reproduction
# ---------------------------------------------------------------------------

def test_02_average_rank_reproduction():
    t0 = time.time()
    fixture = json.loads(DATA.read_text())
    instances = [(ds, model) for ds in fixture for model in fixture[ds]]
    scores = np.empty((len(METHODS), len(instances), len(METRICS)))
    for mi, method in enumerate(METHODS):
        for ii, (ds, model) in enumerate(instances):
            scores[mi, ii] = fixture[ds][model][method]
    table = average_rank(scores, METHODS, [f"{d}/{m}" for d, m in instances],
                         METRICS, tie_rule="average")
    diffs = []
    for mi, method in enumerate(METHODS):
        for ji, metric in enumerate(METRICS):
            got = float(table.averages[mi, ji])
            want = PUBLISHED_AVERAGE_RANKS[method][ji]
            if abs(got - want) > 0.02:
                diffs.append((method, metric, want, round(got, 4)))
    elapsed = time.time() - t0
    ok = not diffs and elapsed < 1.0
    _verdict(2, "average-rank-table", ok)
    assert elapsed < 1.0
    # The published averages are not consistent with ranking the published
    # per-instance scores under any standard tie rule; the recomputation is
    # asserted faithfully and the discrepancy is documented outside the
    # package.
    assert not diffs, f"average ranks differ from published values: {diffs}"


# ---------------------------------------------------------------------------
# 3. AdaBoost correctness suite
# ---------------------------------------------------------------------------

def test_03_adaboost_suite(separable):
    t0 = time.time()
    d, feats = separable
    # (b) a half-mass error round yields alpha 0 and stops training
    w = np.full(4, 0.25)
    eps, alpha, _, _, stop = _boost_step(w, np.array([True, True, False, False]), 2)
    assert eps == 0.5 and alpha == 0.0 and stop

    # (a) + (c) full run on the separable corpus with a 1-epoch weak learner
    spec = BaseLearnerSpec(
        "builtin_linear", "weak",
        LearnerConfig(epochs=1, learning_rate=2.0, batch_size=len(d), seed=3))
    log: list = []
    e = adaboost_fit(spec, d, d.ids, BoostConfig(rounds=30), feats, weight_log=log)
    assert all(abs(float(wt.sum()) - 1.0) <= 1e-9 for _, wt in log)

    truth = d.labels_for(d.ids)
    bound = 1.0
    errors, bounds = [], []
    for t in range(1, len(e.rounds) + 1):
        prefix = BoostEnsemble(e.rounds[:t], e.class_count, e.variant, e.vote_mode)
        pred = adaboost_predict_set(prefix, d.ids, feats, "train").probs.argmax(1)
        errors.append(float((pred != truth).mean()))
        r = e.rounds[t - 1]
        bound *= 2.0 * np.sqrt(r.epsilon * (1.0 - r.epsilon))
        bounds.append(bound)
    elapsed = time.time() - t0
    ok = (errors[-1] == 0.0
          and all(er <= b + 1e-12 for er, b in zip(errors, bounds))
          and elapsed < 30.0)
    _verdict(3, "adaboost-suite", ok)
    assert elapsed < 30.0
    assert errors[-1] == 0.0, f"training error {errors[-1]} after {len(errors)} rounds"
    assert all(er <= b + 1e-12 for er, b in zip(errors, bounds)), \
        f"error exceeded bound: {list(zip(errors, bounds))}"


# ---------------------------------------------------------------------------
# 4. boosting recall on imbalanced data
# ---------------------------------------------------------------------------

def test_04_boosting_recall_imbalanced():
    t0 = time.time()
    wins = 0
    details = []
    for seed in range(10):
        d = synth.imbalanced_corpus(2000, seed=seed)
        s = stratified_split(d, seed)
        feats = featurize_dataset(d, FC)
        cfg = LearnerConfig(epochs=1, learning_rate=2.0,
                            batch_size=len(s.train), seed=seed + 7)
        spec = BaseLearnerSpec("builtin_linear", "weak", cfg)
        e = adaboost_fit(spec, d, s.train, BoostConfig(rounds=10), feats)
        ty = d.labels_for(s.test)
        first = BoostEnsemble(e.rounds[:1], 2, e.variant, e.vote_mode)
        rec1 = binary_metrics(
            adaboost_predict_set(first, s.test, feats, "test").probs.argmax(1), ty).recall
        recb = binary_metrics(
            adaboost_predict_set(e, s.test, feats, "test").probs.argmax(1), ty).recall
        wins += recb > rec1
        details.append((seed, round(rec1, 3), round(recb, 3)))
    elapsed = time.time() - t0
    ok = wins >= 8 and elapsed < 120.0
    _verdict(4, "boosting-recall", ok)
    assert elapsed < 120.0
    assert wins >= 8, f"boosted recall won only {wins}/10 seeds: {details}"


# ---------------------------------------------------------------------------
# 5. voting oracles
# ---------------------------------------------------------------------------

def _brute_hard(rows: np.ndarray) -> np.ndarray:
    """Independent enumeration of the hard-vote rule."""
    m, k = rows.shape
    votes = [0] * k
    for i in range(m):
        best, best_c = -1.0, 0
        for c in range(k):
            if rows[i, c] > best:
                best, best_c = rows[i, c], c
        votes[best_c] += 1
    top = max(votes)
    tied = [c for c in range(k) if votes[c] == top]
    if len(tied) > 1:
        means = [sum(rows[i, c] for i in range(m)) / m for c in tied]
        mx = max(means)
        tied = [c for c, mn in zip(tied, means) if mn == mx]
    out = np.zeros(k)
    out[tied[0]] = 1.0
    return out


def _brute_soft(rows: np.ndarray) -> np.ndarray:
    m, k = rows.shape
    return np.array([sum(rows[i, c] for i in range(m)) / m for c in range(k)])


def test_05_voting_oracles():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    for trial in range(10_000):
        m = int(rng.integers(2, 8))
        k = int(rng.integers(2, 6))
        if trial % 3 == 0:
            # coarse grid: forces frequent argmax and vote ties
            rows = rng.integers(1, 4, size=(m, k)).astype(np.float64)
        else:
            rows = rng.random((m, k))
        rows /= rows.sum(axis=1, keepdims=True)
        assert np.array_equal(bagging_combine(rows, "hard"), _brute_hard(rows))
        assert np.allclose(bagging_combine(rows, "soft"), _brute_soft(rows),
                           atol=1e-12, rtol=0.0)
    # documented tie cases
    # 2-2 vote tie resolved by higher mean probability
    rows = np.array([[0.9, 0.1], [0.8, 0.2], [0.4, 0.6], [0.3, 0.7]])
    assert np.array_equal(bagging_combine(rows, "hard"), [1.0, 0.0])
    # full tie (equal votes, equal means) resolves to the lowest class index
    rows = np.array([[0.7, 0.3], [0.3, 0.7]])
    assert np.array_equal(bagging_combine(rows, "hard"), [1.0, 0.0])
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    _verdict(5, "voting-oracles", ok)
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 6. stacking complementarity
# ---------------------------------------------------------------------------

def test_06_stacking_complementarity():
    t0 = time.time()
    d, bits = synth.complementary_corpus(600, seed=0)
    s = stratified_split(d, 0)
    val_preds = synth.complementary_predsets(d, bits, s.val, "val", seed=0)
    test_preds = synth.complementary_predsets(d, bits, s.test, "test", seed=1)
    ty = d.labels_for(s.test)
    singles = [float((p.reindexed(s.test).argmax(1) == ty).mean())
               for p in test_preds]
    floor = max(singles) + 0.05
    accs = {}
    for kind in META_KINDS:
        sm = stacking_fit(val_preds, s.val, d.labels_for(s.val), kind)
        pred = stacking_predict_set(sm, test_preds, s.test, "test").probs.argmax(1)
        accs[kind] = float((pred == ty).mean())
    elapsed = time.time() - t0
    ok = all(a >= floor for a in accs.values()) and elapsed < 60.0
    _verdict(6, "stacking-complementarity", ok)
    assert elapsed < 60.0
    assert all(a >= floor for a in accs.values()), \
        f"singles {singles}, metas {accs}, floor {floor}"


# ---------------------------------------------------------------------------
# 7. gated-stacking planted routing
# ---------------------------------------------------------------------------

def test_07_dgs_planted_routing():
    t0 = time.time()
    d, owner = synth.sentinel_corpus(2000, experts=5, seed=0)
    s = stratified_split(d, 0)
    feats = featurize_dataset(d, FC)
    val_preds = synth.sentinel_predsets(d, owner, s.val, "val", seed=0)
    test_preds = synth.sentinel_predsets(d, owner, s.test, "test", seed=1)
    ty = d.labels_for(s.test)
    gate = dgs_fit(val_preds, s.val, d.labels_for(s.val), feats,
                   DgsConfig("hard", "lr"))
    stacked = np.stack([p.reindexed(s.test) for p in test_preds])
    routed = sum(
        int(np.argmax(gate_scores(gate, feats.vector_for(sid), stacked[:, i, :])))
        == owner[sid]
        for i, sid in enumerate(s.test))
    route_acc = routed / len(s.test)
    dgs_acc = float((dgs_predict_set(gate, test_preds, s.test, feats, "test")
                     .probs.argmax(1) == ty).mean())
    singles = [float((p.reindexed(s.test).argmax(1) == ty).mean())
               for p in test_preds]
    # forced-uniform soft routing must equal bagging-soft bitwise
    soft_gate = dataclasses.replace(gate, routing="soft")
    uniform = dgs_predict_set(soft_gate, test_preds, s.test, feats, "test",
                              forced_uniform=True)
    bag = bagging_predict_set(bagging_from_predictions(list(test_preds), "soft"),
                              s.test, None, "test")
    bitwise = np.array_equal(uniform.probs, bag.probs)
    elapsed = time.time() - t0
    ok = (route_acc >= 0.95 and dgs_acc >= max(singles) + 0.10 and bitwise
          and elapsed < 120.0)
    _verdict(7, "dgs-planted-routing", ok)
    assert elapsed < 120.0
    assert route_acc >= 0.95, f"routing accuracy {route_acc}"
    assert dgs_acc >= max(singles) + 0.10, f"dgs {dgs_acc} vs singles {singles}"
    assert bitwise


# ---------------------------------------------------------------------------
# 8. metrics / overlap oracles
# ---------------------------------------------------------------------------

def _brute_weighted(preds, truth, k):
    n = len(preds)
    per_p, per_r, per_f, support = [], [], [], []
    for c in range(k):
        tp = sum(1 for p, t in zip(preds, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, truth) if p != c and t == c)
        sup = sum(1 for t in truth if t == c)
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        per_p.append(p)
        per_r.append(r)
        per_f.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
        support.append(sup)
    total = sum(support)
    acc = sum(1 for p, t in zip(preds, truth) if p == t) / n
    wp = sum(s * v for s, v in zip(support, per_p)) / total
    wr = sum(s * v for s, v in zip(support, per_r)) / total
    wf = sum(s * v for s, v in zip(support, per_f)) / total
    return acc, wp, wr, wf


def test_08_metrics_overlap_oracles():
    rng = np.random.default_rng(777)
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(5, 120))
        truth = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        rep = weighted_metrics(preds, truth, k)
        acc, wp, wr, wf = _brute_weighted(preds.tolist(), truth.tolist(), k)
        assert rep.accuracy == acc
        assert rep.w_precision == wp
        assert rep.w_recall == wr
        assert rep.w_f1 == wf
        if k == 2:
            # weighted recall equals accuracy in the binary case
            assert abs(rep.w_recall - rep.accuracy) <= 1e-12

    for _ in range(200):
        sets = [set(rng.integers(0, 40, size=rng.integers(1, 25)).tolist())
                for _ in range(int(rng.integers(1, 7)))]
        regions = overlap_regions(sets)
        universe = set().union(*sets)
        brute = {mask: 0 for mask in range(1, 1 << len(sets))}
        for el in universe:
            mask = sum(1 << j for j, s in enumerate(sets) if el in s)
            brute[mask] += 1
        assert regions == brute
        assert sum(regions.values()) == len(universe)
    _verdict(8, "metrics-overlap-oracles", True)


# ---------------------------------------------------------------------------
# 9. meta-learner numerics ("workers" stays in the name so the verdict
#    id is stable)
# ---------------------------------------------------------------------------

def _central_diff(f, arr, eps=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        hi = f()
        arr[idx] = orig - eps
        lo = f()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
    return g


def test_09_meta_numerics_and_workers():
    rng = np.random.default_rng(99)
    X = rng.normal(size=(20, 6))
    y = rng.integers(0, 3, size=20)
    targets = np.eye(3)[y]
    W = rng.normal(scale=0.3, size=(3, 6))
    b = rng.normal(scale=0.3, size=3)
    l2 = 1e-3

    _, gW, gb = dense_softmax_loss_grad(X, targets, W, b, l2)
    fdW = _central_diff(lambda: dense_softmax_loss_grad(X, targets, W, b, l2)[0], W)
    fdb = _central_diff(lambda: dense_softmax_loss_grad(X, targets, W, b, l2)[0], b)
    assert np.abs(gW - fdW).max() / np.abs(fdW).max() < 1e-5
    assert np.abs(gb - fdb).max() / max(np.abs(fdb).max(), 1e-12) < 1e-5

    S = -np.ones((20, 3))
    S[np.arange(20), y] = 1.0
    # keep every margin away from the hinge kink so the subgradient is exact
    z = X @ W.T + b
    assert np.abs(1.0 - S * z).min() > 1e-3
    gW, gb = hinge_subgradient(X, S, W, b, l2)
    fdW = _central_diff(lambda: hinge_objective(X, S, W, b, l2), W)
    fdb = _central_diff(lambda: hinge_objective(X, S, W, b, l2), b)
    assert np.abs(gW - fdW).max() / np.abs(fdW).max() < 1e-5
    assert np.abs(gb - fdb).max() / max(np.abs(fdb).max(), 1e-12) < 1e-5

    _verdict(9, "meta-numerics-workers", True)


# ---------------------------------------------------------------------------
# 10. ingest invariants on dataset-shaped corpora
# ---------------------------------------------------------------------------

def test_10_ingest_invariants():
    for shape in ("devign", "reveal", "bigvul"):
        d = synth.shaped_corpus(shape)
        s = stratified_split(d, 0)
        n = len(d)
        for split, ratio in (("train", 0.8), ("val", 0.1), ("test", 0.1)):
            ids = s.for_split(split)
            assert abs(len(ids) - ratio * n) <= 2, (shape, split, len(ids))
            # per-class counts track the class priors within one sample
            counts = {}
            for sid in ids:
                lb = d.by_id(sid).label
                counts[lb] = counts.get(lb, 0) + 1
            priors = {c: cnt / n for c, cnt in d.class_counts().items()}
            for c, prior in priors.items():
                assert abs(counts.get(c, 0) - len(ids) * prior) <= 1, \
                    (shape, split, c)

    # stratified bootstrap: exact per-class counts, distinct fraction band
    d = synth.separable_corpus(1000, seed=3)
    s = stratified_split(d, 0)
    train_counts = {}
    for sid in s.train:
        lb = d.by_id(sid).label
        train_counts[lb] = train_counts.get(lb, 0) + 1
    fracs = []
    for seed in range(10):
        plan = bootstrap(d, s, 1, seed=seed)
        draw = plan.draws[0]
        assert len(draw) == len(s.train)
        got = {}
        for sid in draw:
            lb = d.by_id(sid).label
            got[lb] = got.get(lb, 0) + 1
        assert got == train_counts
        fracs.append(len(set(draw)) / len(draw))
    ok = all(0.60 <= f <= 0.665 for f in fracs)
    _verdict(10, "ingest-invariants", ok)
    assert ok, f"distinct fractions out of band: {fracs}"
