"""Synthetic corpus and prediction-set generators used by the test suite
and the bundled demo experiments.

All generators are deterministic given a seed.  Code bodies are small
C-like snippets so the lexer and featurizer run on realistic token streams
without needing any real vulnerability corpus.
"""

from __future__ import annotations

import numpy as np

from .core import PredictionSet
from .ingest import Dataset, Sample

_FILLER_VOCAB = [
    "buf", "len", "ptr", "ret", "idx", "tmp", "count", "size", "offset",
    "data", "src", "dst", "flag", "state", "ctx", "node", "head", "next",
    "value", "key", "init", "copy", "read", "write", "check", "parse",
    "alloc", "free_fn", "open_fn", "close_fn", "update", "handle", "status",
    "limit", "total", "sum_v", "pos", "end_p", "start_p", "mask", "bits",
    "code_v", "name_v", "path_v", "mode", "type_v", "seq", "num_v", "res",
    "err",
]


def _body(rng: np.random.Generator, extra_tokens: list[str], filler: int = 8) -> str:
    """A small C-like function body containing the given extra tokens."""
    names = [_FILLER_VOCAB[i] for i in rng.integers(0, len(_FILLER_VOCAB), filler)]
    stmts = [f"int {n} = {int(rng.integers(0, 100))};" for n in names]
    for tok in extra_tokens:
        stmts.insert(int(rng.integers(0, len(stmts) + 1)), f"{tok}(buf, len);")
    return "void fn(char *buf, int len) {\n  " + "\n  ".join(stmts) + "\n}\n"


def separable_corpus(n: int = 500, seed: int = 0, markers: int = 10) -> Dataset:
    """Linearly separable binary corpus with decoys.

    Class-1 samples carry one of ``markers`` sink tokens twice; class-0
    samples a guard token twice.  A quarter of the samples also carry a
    single decoy token from the opposite pool, so the margin is thin
    (2 true vs 1 decoy) yet a perfect linear separator still exists:
    sum(sink counts) - sum(guard counts) is +-2 -/+ 1, never zero.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E9]))
    samples = []
    for i in range(n):
        label = int(i % 2)
        j = int(rng.integers(0, markers))
        tok = f"sink_call_{j}" if label == 1 else f"guard_call_{j}"
        extra = [tok, tok]
        if rng.random() < 0.25:
            jd = int(rng.integers(0, markers))
            extra.append(f"guard_call_{jd}" if label == 1 else f"sink_call_{jd}")
        samples.append(Sample(f"s{i:05d}", _body(rng, extra), label))
    return Dataset(tuple(samples), 2, "separable")


def imbalanced_corpus(n: int = 2000, seed: int = 0,
                      pos_fraction: float = 0.1) -> Dataset:
    """9:1 imbalanced binary corpus with a noisy positive signal.

    Positive samples carry a sink token with probability 0.85; negatives
    with probability 0.05, so the classes overlap and the majority class
    dominates an unweighted fit.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1BA]))
    n_pos = int(round(n * pos_fraction))
    samples = []
    for i in range(n):
        label = 1 if i < n_pos else 0
        p_signal = 0.85 if label == 1 else 0.05
        extra = []
        if rng.random() < p_signal:
            extra.append(f"sink_call_{int(rng.integers(0, 4))}")
        samples.append(Sample(f"s{i:05d}", _body(rng, extra), label))
    return Dataset(tuple(samples), 2, "imbalanced")


# ---------------------------------------------------------------------------
# complementary experts (stacking fixture)
# ---------------------------------------------------------------------------

def complementary_corpus(n: int = 600, seed: int = 0) -> tuple[Dataset, dict[str, int]]:
    """Binary corpus plus a per-sample regime bit.

    Expert A is reliable exactly when the bit is 1, expert B when it is 0;
    the bit is independent of the label so neither expert beats chance by
    much on its own.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    samples = []
    bits: dict[str, int] = {}
    for i in range(n):
        label = int(rng.integers(0, 2))
        bit = int(rng.integers(0, 2))
        sid = f"s{i:05d}"
        bits[sid] = bit
        samples.append(Sample(sid, _body(rng, [f"regime_{bit}"]), label))
    return Dataset(tuple(samples), 2, "complementary"), bits


def complementary_predsets(d: Dataset, bits: dict[str, int], ids, split: str,
                           seed: int = 0) -> list[PredictionSet]:
    """Two expert prediction sets: each confident-correct (0.9) in its
    regime and weakly wrong (0.55) outside it, with small jitter."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1]))
    ids = tuple(ids)
    out = []
    labels = d.labels_for(ids).tolist()
    for expert, good_bit in (("expert_a", 1), ("expert_b", 0)):
        probs = np.empty((len(ids), 2))
        for i, (sid, y) in enumerate(zip(ids, labels)):
            jitter = float(rng.uniform(-0.02, 0.02))
            if bits[sid] == good_bit:
                p_true = 0.9 + jitter
            else:
                p_true = 0.45 + jitter  # argmax lands on the wrong class
            probs[i, y] = p_true
            probs[i, 1 - y] = 1.0 - p_true
        out.append(PredictionSet(expert, split, ids, probs))
    return out


# ---------------------------------------------------------------------------
# sentinel-token routing (DGS fixture)
# ---------------------------------------------------------------------------

def sentinel_corpus(n: int = 2000, experts: int = 5,
                    seed: int = 0) -> tuple[Dataset, dict[str, int]]:
    """Each sample contains exactly one sentinel token ``tau_<j>``;
    expert j is correct exactly on samples carrying its sentinel."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A0]))
    samples = []
    owner: dict[str, int] = {}
    for i in range(n):
        label = int(rng.integers(0, 2))
        j = int(i % experts)
        sid = f"s{i:05d}"
        owner[sid] = j
        samples.append(Sample(sid, _body(rng, [f"tau_{j}"]), label))
    return Dataset(tuple(samples), 2, "sentinel"), owner


def sentinel_predsets(d: Dataset, owner: dict[str, int], ids, split: str,
                      experts: int = 5, seed: int = 0) -> list[PredictionSet]:
    """Expert j: 0.9 on the true class when it owns the sample, 0.75 on
    the flipped class otherwise."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A1]))
    ids = tuple(ids)
    out = []
    labels = d.labels_for(ids).tolist()
    for j in range(experts):
        probs = np.empty((len(ids), 2))
        for i, (sid, y) in enumerate(zip(ids, labels)):
            jitter = float(rng.uniform(-0.02, 0.02))
            p_true = 0.9 + jitter if owner[sid] == j else 0.25 + jitter
            probs[i, y] = p_true
            probs[i, 1 - y] = 1.0 - p_true
        out.append(PredictionSet(f"expert_{j}", split, ids, probs))
    return out


# ---------------------------------------------------------------------------
# dataset-shaped corpora (split-invariant fixtures)
# ---------------------------------------------------------------------------

#: (name, per-class sizes) — class 0 first.  The multi-class shape uses
#: class sizes that are multiples of 10 so 8:1:1 splits land exactly.
def shaped_class_sizes(shape: str) -> list[int]:
    if shape == "devign":
        return [14858, 12460]
    if shape == "reveal":
        return [20494, 2240]
    if shape == "bigvul":
        return [8640] + [210] * 4 + [200] * 39  # 43 CWE classes, 8,640 vul
    raise ValueError(f"unknown shape {shape!r}")


def shaped_corpus(shape: str, seed: int = 0) -> Dataset:
    """Synthetic corpus with the per-class sizes of a published dataset
    shape; code bodies are minimal (split/bootstrap fixtures only)."""
    sizes = shaped_class_sizes(shape)
    samples = []
    i = 0
    for label, count in enumerate(sizes):
        cwe = f"CWE-{100 + label}" if label >= 1 and len(sizes) > 2 else None
        for _ in range(count):
            samples.append(Sample(f"s{i:06d}", f"int f{i}() {{ return {i}; }}",
                                  label, cwe))
            i += 1
    return Dataset(tuple(samples), len(sizes) if len(sizes) > 2 else 2,
                   f"{shape}-shaped")


def paired_cwe_corpus(cwes: dict[str, int], seed: int = 0) -> Dataset:
    """Multi-class corpus where every vulnerable sample has a paired fixed
    version, for per-CWE subset construction."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC3E]))
    samples = []
    i = 0
    for label, (cwe, count) in enumerate(sorted(cwes.items()), start=1):
        for _ in range(count):
            vid, fid = f"v{i:05d}", f"f{i:05d}"
            samples.append(Sample(vid, _body(rng, ["sink_call_0"], filler=6),
                                  label, cwe, fid))
            samples.append(Sample(fid, _body(rng, [], filler=6), 0, None, vid))
            i += 1
    return Dataset(tuple(samples), 1 + len(cwes), "paired-cwe")
