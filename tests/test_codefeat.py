"""Lexer totality, sentinel normalization, and hashed n-gram features."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vulforge import codefeat, store, synth
from vulforge.codefeat import (
    C_KEYWORDS,
    C_OPERATORS,
    CHR_SENTINEL,
    FNV_OFFSET,
    FNV_PRIME,
    NUM_SENTINEL,
    STR_SENTINEL,
    FeatureVector,
    FeaturizerConfig,
    Token,
    featurize,
    featurize_code,
    fnv1a64,
    ngram_dimension,
    stack_features,
    tokenize,
)
from vulforge.ingest import Dataset, Sample
from vulforge.learners import featurize_dataset


def reference_tokenize(code: str) -> list[Token]:
    """The character-loop lexer the regex lexer must reproduce exactly."""
    tokens: list[Token] = []
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c.isspace():
            i += 1
            continue
        if code.startswith("//", i):
            j = code.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if code.startswith("/*", i):
            j = code.find("*/", i + 2)
            i = n if j < 0 else j + 2
            continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if code[j] == "\\":
                    j += 2
                    continue
                if code[j] == quote:
                    j += 1
                    break
                j += 1
            else:
                j = n
            if quote == '"':
                tokens.append(Token("string", STR_SENTINEL))
            else:
                tokens.append(Token("char", CHR_SENTINEL))
            i = max(j, i + 1)
            continue
        if c.isdigit() or (c == "." and i + 1 < n and code[i + 1].isdigit()):
            j = i + 1
            while j < n and (code[j].isalnum() or code[j] in "._" or
                             (code[j] in "+-" and code[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("number", NUM_SENTINEL))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (code[j].isalnum() or code[j] == "_"):
                j += 1
            text = code[i:j]
            kind = "keyword" if text in C_KEYWORDS else "identifier"
            tokens.append(Token(kind, text))
            i = j
            continue
        for op in C_OPERATORS:
            if code.startswith(op, i):
                tokens.append(Token("operator", op))
                i += len(op)
                break
        else:
            tokens.append(Token("punct", c))
            i += 1
    return tokens


def reference_featurize(code: str, config: FeaturizerConfig) -> FeatureVector:
    """Per-sample dict count of reference-lexed n-grams."""
    lexemes = [t.text for t in reference_tokenize(code)]
    counts: dict[int, float] = {}
    for order in config.ngram_orders:
        for i in range(len(lexemes) - order + 1):
            d = ngram_dimension(tuple(lexemes[i:i + order]), config.dims)
            counts[d] = counts.get(d, 0.0) + 1.0
    idx = np.array(sorted(counts), dtype=np.int64)
    cnt = np.array([counts[d] for d in idx])
    return FeatureVector(config.dims, idx, cnt, float(np.sqrt(np.dot(cnt, cnt))))


#: where Python's ``re`` classes and the lexer's ``str`` methods part, and
#: the edges of literals and comments
NAMED_CASES = [
    "²3", "é_1 ℕ", "½a", "١٢", "a\xa0b", "1e+5+2", "0x1p-3",
    '"unterminated', "'\\", "x /* unterminated", "a½", ".²", "²e+5", "...5",
]

#: characters that steer the lexer, for text denser in C than st.text()
C_ALPHABET = st.sampled_from(list("ab_eEpx019. \n\t\"'\\/*+-<>=&|:;#²½é١\xa0"))


class TestTokenize:
    def test_keywords_and_identifiers(self):
        kinds = [(t.kind, t.text) for t in tokenize("int foo = bar;")]
        assert kinds == [("keyword", "int"), ("identifier", "foo"),
                         ("operator", "="), ("identifier", "bar"),
                         ("punct", ";")]

    def test_literal_sentinels(self):
        texts = [t.text for t in tokenize('x = 42 + 0x1f; s = "hi"; c = \'a\';')]
        assert texts.count(NUM_SENTINEL) == 2
        assert STR_SENTINEL in texts
        assert CHR_SENTINEL in texts
        assert "42" not in texts and "hi" not in texts

    def test_comments_dropped(self):
        toks = tokenize("a // line comment\n/* block\ncomment */ b")
        assert [t.text for t in toks] == ["a", "b"]

    def test_maximal_munch_operators(self):
        assert [t.text for t in tokenize("a <<= b >> c")] == \
            ["a", "<<=", "b", ">>", "c"]

    def test_escaped_quote_in_string(self):
        toks = tokenize(r'"a\"b" x')
        assert [t.text for t in toks] == [STR_SENTINEL, "x"]

    def test_total_on_arbitrary_bytes(self):
        # never raises, regardless of input
        tokenize("\x00\x7fé @#`$ 3..4e+ '")

    @given(st.text(max_size=200))
    def test_total_property(self, s):
        for t in tokenize(s):
            assert t.text

    @pytest.mark.parametrize("code", NAMED_CASES)
    def test_named_cases_match_reference(self, code):
        assert tokenize(code) == reference_tokenize(code)

    @given(st.text(max_size=200) | st.text(C_ALPHABET, max_size=60))
    def test_matches_reference_lexer(self, s):
        assert [(t.kind, t.text) for t in tokenize(s)] == \
            [(t.kind, t.text) for t in reference_tokenize(s)]


class TestFnv:
    def test_reference_values(self):
        # independent reimplementation of 64-bit FNV-1a
        def ref(data):
            h = FNV_OFFSET
            for byte in data:
                h = ((h ^ byte) * FNV_PRIME) % (1 << 64)
            return h

        for blob in (b"", b"a", b"hello world", bytes(range(50))):
            assert fnv1a64(blob) == ref(blob)

    def test_known_constant(self):
        assert fnv1a64(b"") == FNV_OFFSET


class TestFeaturizerConfig:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            FeaturizerConfig(dims=1000)
        with pytest.raises(ValueError):
            FeaturizerConfig(ngram_orders=())
        with pytest.raises(ValueError):
            FeaturizerConfig(ngram_orders=(0,))


class TestFeaturize:
    def test_deterministic(self):
        code = "void f(int *p) { if (p) *p = 1; }"
        a = featurize_code(code)
        b = featurize_code(code)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.counts, b.counts)

    def test_unigram_counts_sum_to_token_count(self):
        code = "int a = 1; int b = 2;"
        cfg = FeaturizerConfig(dims=1 << 12, ngram_orders=(1,))
        fv = featurize(tokenize(code), cfg)
        assert fv.counts.sum() == len(tokenize(code))

    def test_norm_matches_counts(self):
        fv = featurize_code("a b a b a", FeaturizerConfig(1 << 10, (1,)))
        assert fv.norm == pytest.approx(float(np.sqrt((fv.counts ** 2).sum())))

    def test_empty_code(self):
        fv = featurize_code("")
        assert len(fv.indices) == 0 and fv.norm == 0.0

    def test_ngram_dimension_in_range(self):
        d = ngram_dimension(("a", "b"), 1 << 8)
        assert 0 <= d < 1 << 8

    def test_collisions_additive(self):
        # same token twice lands in one dimension with count 2
        fv = featurize(tokenize("x x"), FeaturizerConfig(1 << 10, (1,)))
        assert 2.0 in fv.counts


class TestStackFeatures:
    def test_csr_layout(self):
        cfg = FeaturizerConfig(1 << 10, (1,))
        vs = [featurize_code("a b", cfg), featurize_code("", cfg),
              featurize_code("c", cfg)]
        indptr, indices, data = stack_features(vs)
        assert indptr.tolist() == [0, 2, 2, 3]
        assert len(indices) == len(data) == 3


CONFIGS = [FeaturizerConfig(dims, orders) for dims in (1 << 18, 1 << 6)
           for orders in ((1, 2), (1, 2, 3))]


def _corpora():
    extra = [Sample("empty", "", 0), Sample("blank", " \n\t", 0),
             Sample("comments", "// only\n/* a comment */", 0),
             Sample("open", "int x; /* never closed", 0)]
    extra += [Sample(f"named{i}", code, 0) for i, code in enumerate(NAMED_CASES)]
    for d in (synth.imbalanced_corpus(200, seed=3),
              synth.paired_cwe_corpus({"CWE-119": 40, "CWE-476": 30}, seed=2),
              synth.sentinel_corpus(120, seed=1)[0]):
        yield Dataset(d.samples + tuple(extra), d.class_count, d.name)


@pytest.mark.parametrize("config", CONFIGS, ids=repr)
def test_featurize_dataset_byte_identical_to_per_sample_reference(config):
    for d in _corpora():
        ref = stack_features([reference_featurize(s.code, config) for s in d.samples])
        fm = featurize_dataset(d, config)
        for want, got in zip(ref, (fm.indptr, fm.indices, fm.data)):
            assert np.array_equal(got, want)
            assert store._npy_bytes(got) == store._npy_bytes(want)


def test_repeat_calls_and_a_second_config_give_the_same_dims():
    d = next(_corpora())
    small, wide = FeaturizerConfig(1 << 6, (1, 2, 3)), FeaturizerConfig(1 << 18, (2,))
    first = featurize_dataset(d, small)
    other = featurize_dataset(d, wide)
    again = featurize_dataset(d, small)
    for a, b in ((first, again), (other, featurize_dataset(d, wide))):
        for name in ("indptr", "indices", "data"):
            assert store._npy_bytes(getattr(a, name)) == store._npy_bytes(getattr(b, name))
    ref = reference_featurize(d.samples[0].code, wide)
    assert np.array_equal(other.vector_for(d.ids[0]).indices, ref.indices)


@given(st.lists(st.text(C_ALPHABET, max_size=40), max_size=5))
def test_batch_rows_match_single_samples(codes):
    config = FeaturizerConfig(1 << 6, (1, 3))
    indptr, indices, data = codefeat.featurize_many(codes, config)
    for r, code in enumerate(codes):
        want = reference_featurize(code, config)
        one = featurize_code(code, config)
        assert np.array_equal(indices[indptr[r]:indptr[r + 1]], want.indices)
        assert np.array_equal(data[indptr[r]:indptr[r + 1]], want.counts)
        assert np.array_equal(one.indices, want.indices) and one.norm == want.norm
        tokens = featurize(tokenize(code), config)
        assert np.array_equal(tokens.counts, want.counts)


def test_long_ngrams_match_reference():
    # order 12 codes overflow int64 at this vocabulary, so grams are renumbered
    config = FeaturizerConfig(1 << 18, (1, 12))
    d = next(_corpora())
    ref = stack_features([reference_featurize(s.code, config) for s in d.samples])
    fm = featurize_dataset(d, config)
    assert len({t.text for s in d.samples for t in tokenize(s.code)}) ** 12 >= 1 << 63
    for want, got in zip(ref, (fm.indptr, fm.indices, fm.data)):
        assert store._npy_bytes(got) == store._npy_bytes(want)


def test_a_chunk_of_short_rows_under_a_long_order_matches_reference():
    # A vocabulary wide enough to renumber order-12 codes, then a final
    # chunk whose rows are all shorter than 12 tokens: that order has no
    # n-gram to count there.
    config = FeaturizerConfig(1 << 18, (1, 12))
    wide = " ".join(f"v{i}" for i in range(64))
    short = ["x", "", "// c", "a + b;", "x"]
    codes = [wide] * codefeat._CHUNK_ROWS + short
    assert 65 ** 12 >= 1 << 63
    indptr, indices, data = codefeat.featurize_many(codes, config)
    ref = stack_features([reference_featurize(c, config) for c in codes])
    for want, got in zip(ref, (indptr, indices, data)):
        assert store._npy_bytes(got) == store._npy_bytes(want)
    for code in ["x"] + short:
        got, want = featurize_code(code, config), reference_featurize(code, config)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.counts, want.counts)
