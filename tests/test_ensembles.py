"""Ensemble strategies: vote rules, boosting updates, stacking, gating."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_compact_of, make_predset, random_feature_matrix
from vulforge import synth
from vulforge.codefeat import FeaturizerConfig
from vulforge.core import make_prediction_set
from vulforge.ensembles import (
    BaggingEnsemble,
    BaseLearnerSpec,
    BoostConfig,
    _boost_step,
    _gate_input,
    _route,
    adaboost_fit,
    adaboost_fit_external,
    adaboost_predict_set,
    bagging_combine,
    bagging_fit,
    bagging_from_predictions,
    bagging_predict,
    bagging_predict_set,
    boost_combine,
    derive_seed,
    dgs_fit,
    dgs_predict,
    dgs_predict_set,
    DgsConfig,
    gate_scores,
    gate_scores_many,
    gate_targets,
    oof_prediction_set,
    soft_combine,
    stacking_fit,
    stacking_predict_set,
)
from vulforge.errors import (
    CoverageMismatch,
    LayoutMismatch,
    MemberKMismatch,
    NoRoundsRetained,
)
from vulforge.ingest import stratified_split
from vulforge.learners import (
    LearnerConfig,
    SampleWeights,
    featurize_dataset,
    write_predictions,
)
from vulforge.metamodels import (
    META_KINDS,
    MetaConfig,
    meta_fit,
    meta_predict_many,
)
from vulforge.store import load_ensemble, save_ensemble


class TestCombiners:
    def test_soft_is_weighted_mean(self):
        rows = np.array([[0.8, 0.2], [0.4, 0.6]])
        assert np.allclose(soft_combine(rows, np.array([0.5, 0.5])), [0.6, 0.4])

    def test_hard_majority(self):
        rows = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
        assert np.array_equal(bagging_combine(rows, "hard"), [1.0, 0.0])

    def test_hard_tie_mean_then_index(self):
        # 1-1 vote; class 1 has the higher mean
        rows = np.array([[0.9, 0.1], [0.0, 1.0]])
        assert np.array_equal(bagging_combine(rows, "hard"), [0.0, 1.0])
        # exact mirror: equal means resolve to the lower index
        rows = np.array([[0.8, 0.2], [0.2, 0.8]])
        assert np.array_equal(bagging_combine(rows, "hard"), [1.0, 0.0])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bagging_combine(np.ones((2, 2)) / 2, "plurality")


# Per-row combiners as they were before the (M, N, K) batch form; the
# batched combiners must reproduce them bit for bit.

def _ref_soft_combine(rows, weights):
    return (weights[:, None] * rows).sum(axis=0)


def _ref_bagging_combine(rows, mode):
    m, k = rows.shape
    if mode == "soft":
        return _ref_soft_combine(rows, np.full(m, 1.0 / m))
    labels = rows.argmax(axis=1)
    votes = np.bincount(labels, minlength=k)
    tied = np.flatnonzero(votes == votes.max())
    if len(tied) > 1:
        means = rows.mean(axis=0)[tied]
        tied = tied[means == means.max()]
    out = np.zeros(k)
    out[int(tied[0])] = 1.0
    return out


def _ref_boost_combine(rows, alphas, k, vote_mode):
    if vote_mode == "score":
        scores = (alphas[:, None] * rows).sum(axis=0)
    else:
        scores = np.zeros(k)
        for label, a in zip(rows.argmax(axis=1), alphas):
            scores[label] += a
    return scores / alphas.sum()


def _ref_route(rows, scores, mode):
    if mode == "hard":
        return rows[int(np.argmax(scores))].copy()
    return _ref_soft_combine(rows, scores)


@st.composite
def _stacks(draw):
    """(M, N, K) stacks with frequent argmax, vote and mean ties, positive
    round coefficients and an (N, M) gate-score matrix."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 20))
    k = draw(st.sampled_from([2, 3, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, draw(st.sampled_from([2, 4])), size=(m, n, k)).astype(np.float64)
    if draw(st.booleans()):
        stack = (stack + 1.0) / (stack + 1.0).sum(axis=2, keepdims=True)
    alphas = rng.uniform(0.05, 3.0, size=m)
    if draw(st.booleans()):
        alphas = np.round(alphas)  # equal coefficients tie class scores
        alphas[alphas == 0.0] = 1.0
    scores = rng.uniform(size=(n, m))
    if draw(st.booleans()):
        scores = np.round(scores * 2.0)  # gate-score ties
    return stack, alphas, scores


@settings(max_examples=300, deadline=None)
@given(_stacks())
def test_batched_combiners_match_per_row(case):
    stack, alphas, scores = case
    _, n, k = stack.shape

    def per_row(fn):
        return np.vstack([fn(stack[:, i, :], i) for i in range(n)])

    for mode in ("hard", "soft"):
        ref = per_row(lambda rows, i: _ref_bagging_combine(rows, mode))
        assert np.array_equal(bagging_combine(stack, mode), ref)
        assert np.array_equal(bagging_combine(stack[:, 0, :], mode), ref[0])
    for vote_mode in ("label", "score"):
        ref = per_row(lambda rows, i: _ref_boost_combine(rows, alphas, k, vote_mode))
        assert np.array_equal(boost_combine(stack, alphas, k, vote_mode), ref)
        assert np.array_equal(boost_combine(stack[:, 0, :], alphas, k, vote_mode), ref[0])
    for mode in ("hard", "soft"):
        ref = per_row(lambda rows, i: _ref_route(rows, scores[i], mode))
        assert np.array_equal(_route(stack, scores, mode), ref)
    assert np.array_equal(soft_combine(stack, scores.T),
                          per_row(lambda rows, i: _ref_soft_combine(rows, scores[i])))


class TestBagging:
    def test_builtin_fit_and_predict(self, separable, separable_split):
        from vulforge.ingest import bootstrap
        d, feats = separable
        s = separable_split
        plan = bootstrap(d, s, 3, seed=0)
        spec = BaseLearnerSpec(
            "builtin_linear", "bag",
            LearnerConfig(epochs=1, learning_rate=2.0, batch_size=len(s.train)))
        e = bagging_fit(spec, plan, d, "soft", feats)
        ps = bagging_predict_set(e, s.test, feats, "test")
        acc = (ps.probs.argmax(1) == d.labels_for(s.test)).mean()
        assert acc > 0.9
        one = bagging_predict(e, feats.vector_for(s.test[0]))
        assert np.array_equal(one, ps.probs[0])

    def test_external_members(self):
        a = make_predset("a", "test", ["x", "y"], [[0.9, 0.1], [0.2, 0.8]])
        b = make_predset("b", "test", ["x", "y"], [[0.7, 0.3], [0.4, 0.6]])
        e = bagging_from_predictions([a, b], "soft")
        out = bagging_predict_set(e, ["x", "y"], None, "test")
        assert np.allclose(out.probs, [[0.8, 0.2], [0.3, 0.7]])

    def test_member_k_checked_on_predict(self):
        a = make_predset("a", "test", ["x"], [[0.5, 0.3, 0.2]])
        e = BaggingEnsemble("soft", (a,), 2, external=True)
        with pytest.raises(MemberKMismatch):
            bagging_predict_set(e, ["x"], None, "test")
        with pytest.raises(MemberKMismatch):
            bagging_predict(e, "x")

    def test_member_k_mismatch(self):
        a = make_predset("a", "test", ["x"], [[0.9, 0.1]])
        b = make_predset("b", "test", ["x"], [[0.5, 0.3, 0.2]])
        with pytest.raises(MemberKMismatch):
            bagging_from_predictions([a, b], "soft")


class TestBoostStep:
    def test_binary_alpha_formula(self):
        w = np.full(10, 0.1)
        miss = np.zeros(10, dtype=bool)
        miss[:2] = True  # epsilon 0.2
        eps, alpha, w2, z, stop = _boost_step(w, miss, 2)
        assert eps == pytest.approx(0.2)
        assert alpha == pytest.approx(0.5 * math.log(4.0))
        assert not stop
        assert w2.sum() == pytest.approx(1.0)
        # missed samples gain mass, correct ones lose it
        assert w2[0] > 0.1 > w2[5]

    def test_samme_alpha_includes_class_term(self):
        w = np.full(10, 0.1)
        miss = np.zeros(10, dtype=bool)
        miss[:3] = True  # epsilon 0.3
        k = 4
        eps, alpha, w2, _, stop = _boost_step(w, miss, k)
        assert alpha == pytest.approx(math.log(0.7 / 0.3) + math.log(k - 1))
        assert not stop
        # SAMME leaves correct-sample raw weights unscaled before renorm
        assert w2[5] < w2[0]

    def test_degenerate_errors_stop(self):
        w = np.full(4, 0.25)
        # perfect round
        eps, alpha, _, _, stop = _boost_step(w, np.zeros(4, dtype=bool), 2)
        assert eps == 0.0 and stop
        # too-bad round (binary limit 0.5)
        eps, alpha, _, _, stop = _boost_step(
            w, np.array([True, True, True, False]), 2)
        assert stop
        # multi-class limit is 1 - 1/K: epsilon 0.5 is fine for K=4
        _, _, _, _, stop = _boost_step(
            np.full(4, 0.25), np.array([True, True, False, False]), 4)
        assert not stop


class TestBoosting:
    def test_no_rounds_retained(self, separable):
        d, feats = separable
        # learning rate 0 never moves off W=0, so round 1 is degenerate
        spec = BaseLearnerSpec(
            "builtin_linear", "weak",
            LearnerConfig(epochs=1, learning_rate=0.0, batch_size=len(d)))
        with pytest.raises(NoRoundsRetained):
            adaboost_fit(spec, d, d.ids, BoostConfig(rounds=3), feats)

    def test_resample_mode_trains(self, separable):
        d, feats = separable
        # resampling unbalances the class mass, so the one-step weak learner
        # degenerates; a converged learner exercises the mode instead
        spec = BaseLearnerSpec(
            "builtin_linear", "weak",
            LearnerConfig(epochs=50, learning_rate=0.5, batch_size=32))
        e = adaboost_fit(spec, d, d.ids,
                         BoostConfig(rounds=3, weight_mode="resample"), feats)
        assert len(e.rounds) >= 1

    def test_label_vote_normalization(self):
        rows = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        alphas = np.array([1.0, 2.0, 1.0])
        out = boost_combine(rows, alphas, 2, "label")
        assert np.allclose(out, [0.5, 0.5])
        score = boost_combine(rows, alphas, 2, "score")
        assert np.allclose(score.sum(), 1.0)
        assert score[1] > score[0]

    def test_external_protocol_loop(self, separable, tmp_path):
        d, _ = separable
        ids = d.ids[:50]
        truth = d.labels_for(ids)

        def respond(t, flip):
            # external "model": correct except on `flip` samples
            rows = {}
            for i, sid in enumerate(ids):
                y = truth[i]
                p = 0.9 if i >= flip else 0.1
                rows[sid] = [1 - p, p] if y == 1 else [p, 1 - p]
            import json
            path = tmp_path / "boost" / f"round_{t}" / "preds_train.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            lines = [json.dumps({"id": s, "probs": rows[s]}) for s in ids]
            path.write_text("\n".join(lines) + "\n")

        # pre-seed both rounds' responses; weights files are emitted by the fit
        respond(1, flip=10)
        respond(2, flip=5)
        e = adaboost_fit_external(tmp_path, d, ids, rounds=2)
        assert len(e.rounds) == 2
        assert (tmp_path / "boost" / "round_2" / "weights.jsonl").exists()
        assert e.rounds[0].epsilon == pytest.approx(0.2)
        assert e.rounds[1].alpha > 0


class TestStacking:
    def _bases(self, split, ids):
        rng = np.random.default_rng(1)
        out = []
        for mid in ("a", "b"):
            probs = rng.random((len(ids), 2))
            probs /= probs.sum(1, keepdims=True)
            out.append(make_predset(mid, split, ids, probs))
        return out

    def test_needs_two_bases(self):
        ids = ["x", "y", "z"]
        bases = self._bases("val", ids)
        with pytest.raises(CoverageMismatch):
            stacking_fit(bases[:1], ids, np.array([0, 1, 0]), "lr")

    def test_base_order_enforced(self):
        ids = [f"s{i}" for i in range(12)]
        bases = self._bases("val", ids)
        labels = np.array([i % 2 for i in range(12)])
        sm = stacking_fit(bases, ids, labels, "lr")
        with pytest.raises(LayoutMismatch):
            stacking_predict_set(sm, bases[::-1], ids, "test")

    @pytest.mark.parametrize("kind", META_KINDS)
    def test_all_meta_kinds_fit(self, kind):
        ids = [f"s{i}" for i in range(20)]
        bases = self._bases("val", ids)
        labels = np.array([i % 2 for i in range(20)])
        sm = stacking_fit(bases, ids, labels, kind)
        out = stacking_predict_set(sm, bases, ids, "val")
        assert out.probs.shape == (20, 2)

    def test_oof_deterministic_and_covering(self, separable):
        d, feats = separable
        spec = BaseLearnerSpec(
            "builtin_linear", "m1",
            LearnerConfig(epochs=1, learning_rate=2.0, batch_size=400))
        ids = d.ids[:100]
        a = oof_prediction_set(spec, d, ids, feats, folds=5, seed=0)
        b = oof_prediction_set(spec, d, ids, feats, folds=5, seed=0)
        assert a.ids == tuple(ids)
        assert np.array_equal(a.probs, b.probs)
        with pytest.raises(ValueError):
            oof_prediction_set(spec, d, ids, feats, folds=1)


class TestGate:
    def test_gate_targets(self):
        # two samples, three experts; expert argmax per (expert, sample)
        stacked = np.array([
            [[0.9, 0.1], [0.9, 0.1]],   # expert 0 predicts class 0 both times
            [[0.2, 0.8], [0.9, 0.1]],   # expert 1: class 1 then class 0
            [[0.4, 0.6], [0.3, 0.7]],   # expert 2: class 1 both times
        ])
        labels = np.array([1, 1])
        t = gate_targets(stacked, labels)
        assert np.allclose(t[0], [0.0, 0.5, 0.5])  # experts 1, 2 correct
        assert np.allclose(t[1], [0.0, 0.0, 1.0])  # only expert 2 correct
        # nobody correct -> uniform fallback
        all_wrong = np.tile([[0.9, 0.1]], (3, 1, 1))  # everyone says class 0
        t2 = gate_targets(all_wrong, np.array([1]))
        assert np.allclose(t2[0], [1 / 3, 1 / 3, 1 / 3])

    def test_needs_two_bases(self, separable):
        d, feats = separable
        p = make_predset("a", "val", d.ids[:4], np.full((4, 2), 0.5))
        with pytest.raises(CoverageMismatch):
            dgs_fit([p], d.ids[:4], np.zeros(4, dtype=int), feats)

    def test_base_order_enforced(self, separable):
        d, feats = separable
        ids = d.ids[:20]
        labels = d.labels_for(ids)
        rng = np.random.default_rng(0)
        bases = []
        for mid in ("a", "b"):
            probs = rng.random((20, 2))
            probs /= probs.sum(1, keepdims=True)
            bases.append(make_predset(mid, "val", ids, probs))
        g = dgs_fit(bases, ids, labels, feats)
        with pytest.raises(LayoutMismatch):
            dgs_predict_set(g, bases[::-1], ids, feats, "val")

    @pytest.mark.parametrize("kind", META_KINDS)
    def test_gate_kinds_fit(self, kind, separable):
        d, feats = separable
        ids = d.ids[:30]
        labels = d.labels_for(ids)
        rng = np.random.default_rng(2)
        bases = []
        for mid in ("a", "b"):
            probs = rng.random((30, 2))
            probs /= probs.sum(1, keepdims=True)
            bases.append(make_predset(mid, "val", ids, probs))
        g = dgs_fit(bases, ids, labels, feats, DgsConfig("soft", kind))
        out = dgs_predict_set(g, bases, ids, feats, "val")
        assert out.probs.shape == (30, 2)
        assert np.allclose(out.probs.sum(1), 1.0)


# Test-local copies of the per-row gate-input builder and the per-sample
# gate scorer that _gate_input and gate_scores_many replaced.

def _ref_dense_gate_input(features, ids, stacked):
    m, n, k = stacked.shape
    dense = np.zeros((n, features.dims + m * k))
    for i, sid in enumerate(ids):
        fv = features.vector_for(sid)
        dense[i, fv.indices] = fv.counts
    dense[:, features.dims:] = np.transpose(stacked, (1, 0, 2)).reshape(n, m * k)
    return dense


def _ref_gate_scores(g, fv, base_rows):
    m, k = base_rows.shape
    dense = np.zeros(g.dims + m * k)
    dense[fv.indices] = fv.counts
    dense[g.dims:] = base_rows.reshape(m * k)
    return meta_predict_many(g.gate, dense[g.columns][None, :])[0]


def _ref_scores(g, feats, ids, stack):
    return np.vstack([_ref_gate_scores(g, feats.vector_for(sid), stack[:, i, :])
                      for i, sid in enumerate(ids)])


def _random_bases(rng, ids, m, k, split):
    probs = rng.random((m, len(ids), k)) + 1e-3
    probs /= probs.sum(axis=2, keepdims=True)
    return [make_predset(f"e{j}", split, ids, probs[j]) for j in range(m)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 25), st.integers(0, 2**32 - 1), st.integers(2, 6),
       st.sampled_from([2, 3, 9]), st.data())
def test_gate_rows_bit_identical_to_row_loops(n_rows, seed, m, k, data):
    rng = np.random.default_rng(seed)
    fm = random_feature_matrix(rng, n_rows)
    n = data.draw(st.integers(0, min(20, n_rows)))
    ids = tuple(fm.ids[i] for i in rng.permutation(n_rows)[:n])
    stack = rng.random((m, n, k))
    ref = _ref_dense_gate_input(fm, ids, stack)
    rows = fm.rows_for(ids)
    # every column, and the columns a gate fit on these rows keeps; integer
    # counts, which features/data.npy may hold, must not round the probs
    for columns in (np.arange(fm.dims + m * k),
                    np.union1d(rows[1], fm.dims + np.arange(m * k))):
        for vals in (rows[2], rows[2].astype(np.int64)):
            assert np.array_equal(_gate_input(*rows[:2], vals, fm.dims, stack, columns),
                                  ref[:, columns])


def _fit_gate(d, feats, kind, routing="hard", n_val=30, n_test=40, m=3, k=2,
              meta_cfg=MetaConfig(trees=10)):
    rng = np.random.default_rng(7)
    val, test = d.ids[:n_val], d.ids[n_val:n_val + n_test]
    bases = _random_bases(rng, val, m, k, "val")
    g = dgs_fit(bases, val, d.labels_for(val), feats, DgsConfig(routing, kind),
                meta_cfg=meta_cfg)
    return g, test, _random_bases(rng, test, m, k, "test")


class TestGateScoresMany:
    @pytest.mark.parametrize("kind", ["rf", "knn"])
    def test_exact_for_rf_and_knn(self, kind, separable):
        d, feats = separable
        g, test, bases = _fit_gate(d, feats, kind)
        stack = np.stack([p.probs for p in bases])
        got = gate_scores_many(g, *feats.rows_for(test), stack)
        assert np.array_equal(got, _ref_scores(g, feats, test, stack))

    @pytest.mark.parametrize("kind", ["lr", "svm"])
    def test_close_for_lr_and_svm(self, kind, separable):
        # the batched forward pass may round the last bits differently
        d, feats = separable
        g, test, bases = _fit_gate(d, feats, kind)
        stack = np.stack([p.probs for p in bases])
        got = gate_scores_many(g, *feats.rows_for(test), stack)
        ref = _ref_scores(g, feats, test, stack)
        assert np.array_equal(got.argmax(axis=1), ref.argmax(axis=1))
        assert np.allclose(got, ref, rtol=0.0, atol=16 * np.finfo(np.float64).eps)

    def test_default_dims_spans_several_chunks(self):
        d = synth.separable_corpus(40, seed=3)
        feats = featurize_dataset(d, FeaturizerConfig())
        g, test, bases = _fit_gate(d, feats, "rf", n_val=16, n_test=20,
                                   meta_cfg=MetaConfig(trees=5))
        assert feats.dims == 1 << 18
        stack = np.stack([p.probs for p in bases])
        got = gate_scores_many(g, *feats.rows_for(test), stack)
        assert np.array_equal(got, _ref_scores(g, feats, test, stack))

    @pytest.mark.parametrize("kind", ["lr", "rf", "knn", "svm"])
    @pytest.mark.parametrize("routing", ["hard", "soft"])
    def test_single_sample_is_a_batch_of_one(self, kind, routing, separable):
        d, feats = separable
        g, test, bases = _fit_gate(d, feats, kind, routing, n_test=12)
        out = dgs_predict_set(g, bases, test, feats, "test")
        stack = np.stack([p.probs for p in bases])
        for i, sid in enumerate(test):
            fv = feats.vector_for(sid)
            assert np.array_equal(dgs_predict(g, fv, stack[:, i, :]), out.probs[i])
            assert np.array_equal(
                gate_scores(g, fv, stack[:, i, :]),
                gate_scores_many(g, *feats.rows_for([sid]), stack[:, i:i + 1, :])[0])

    def test_layout_checked(self, separable):
        d, feats = separable
        g, test, bases = _fit_gate(d, feats, "lr")
        stack = np.stack([p.probs for p in bases])
        with pytest.raises(LayoutMismatch):
            gate_scores_many(g, *feats.rows_for(test), stack[:2])
        uniform = gate_scores_many(g, *feats.rows_for(test), stack, forced_uniform=True)
        assert np.array_equal(uniform, np.full((len(test), 3), 1.0 / 3))



def _full_width_gate(kind, bases, val, labels, feats, meta_cfg, seed=0):
    """The dense gate fit on every column of the densified gate input."""
    stack = np.stack([p.reindexed(val) for p in bases])
    m, _, k = stack.shape
    dense = _gate_input(*feats.rows_for(val), feats.dims, stack,
                        np.arange(feats.dims + m * k))
    return meta_fit(kind, dense,
                    gate_targets(stack, labels).argmax(axis=1), meta_cfg, seed,
                    output_width=m)


class TestDenseGateActiveColumns:
    """Dense gates fit and score on the columns the validation rows touch;
    an svm or knn gate is the fit on the full 2^dims + M*K wide input,
    restricted to those columns, and an rf gate is the forest on the
    touched columns themselves."""

    @pytest.mark.parametrize("kind", ["svm", "knn"])
    def test_matches_full_width_reference(self, kind):
        rng = np.random.default_rng(11)
        feats = random_feature_matrix(rng, 90, dims=1024)
        labels = rng.integers(0, 2, 90)
        val, test = feats.ids[:50], feats.ids[50:]
        bases = _random_bases(rng, val, 3, 2, "val")
        cfg = MetaConfig(trees=20, epochs=50)
        g = dgs_fit(bases, val, labels[:50], feats, DgsConfig("soft", kind),
                    meta_cfg=cfg, seed=4)
        ref = _full_width_gate(kind, bases, val, labels[:50], feats, cfg, seed=4)
        assert ref.input_width == 1024 + 3 * 2
        assert np.array_equal(g.columns, np.union1d(feats.rows_for(val)[1],
                                                    1024 + np.arange(3 * 2)))
        assert_compact_of(g.gate, ref, g.columns)
        # the full-width gate scores every column of the test rows
        full = replace(g, gate=ref, columns=np.arange(ref.input_width))
        test_bases = _random_bases(rng, test, 3, 2, "test")
        stack = np.stack([p.probs for p in test_bases])
        got = gate_scores_many(g, *feats.rows_for(test), stack)
        want = gate_scores_many(full, *feats.rows_for(test), stack)
        # svm sums over fewer columns; knn drops a per-row constant
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
        assert np.allclose(got, want, rtol=0.0, atol=16 * np.finfo(np.float64).eps)
        hard = [dgs_predict_set(replace(h, routing="hard"), test_bases, test, feats,
                                "test").probs for h in (g, full)]
        assert np.array_equal(*hard)

    def test_rf_gate_is_the_forest_on_its_columns(self, tmp_path):
        rng = np.random.default_rng(11)
        feats = random_feature_matrix(rng, 90, dims=1024)
        labels = rng.integers(0, 2, 90)
        val = feats.ids[:50]
        bases = _random_bases(rng, val, 3, 2, "val")
        cfg = MetaConfig(trees=20)
        g = dgs_fit(bases, val, labels[:50], feats, DgsConfig("hard", "rf"),
                    meta_cfg=cfg, seed=4)
        stack = np.stack([p.reindexed(val) for p in bases])
        ref = meta_fit("rf", _gate_input(*feats.rows_for(val), feats.dims, stack,
                                         g.columns),
                       gate_targets(stack, labels[:50]).argmax(axis=1), cfg, 4,
                       output_width=3)
        save_ensemble(tmp_path, g)
        saved = load_ensemble(tmp_path).gate
        assert saved.input_width == ref.input_width == len(g.columns)
        assert saved.params.keys() == ref.params.keys()
        for name, value in ref.params.items():
            assert saved.params[name].dtype == value.dtype, name
            assert np.array_equal(saved.params[name], value), name
        # every tree splits: its features are drawn from the touched columns
        split = ref.params["left"] != np.arange(len(ref.params["left"]))
        assert split[ref.params["roots"]].all()

    @pytest.mark.parametrize("kind", META_KINDS)
    def test_memory_is_a_fraction_of_the_dense_input(self, kind):
        rng = np.random.default_rng(12)
        feats = random_feature_matrix(rng, 40, dims=1 << 18)
        val = feats.ids
        bases = _random_bases(rng, val, 2, 2, "val")
        stack = np.stack([p.probs for p in bases])
        dense_bytes = len(val) * (feats.dims + 2 * 2) * 8
        assert dense_bytes >= 30 << 20
        tracemalloc.start()
        try:
            g = dgs_fit(bases, val, rng.integers(0, 2, len(val)), feats,
                        DgsConfig("hard", kind),
                        meta_cfg=MetaConfig(trees=10, epochs=20))
            gate_scores_many(g, *feats.rows_for(val), stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 10


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
        assert derive_seed(0, 1, 2) != derive_seed(0, 1, 3)
        assert derive_seed(0, 1) != derive_seed(1, 1)
