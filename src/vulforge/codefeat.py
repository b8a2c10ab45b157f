"""C-like lexer and hashed n-gram featurizer.

The lexer is total: any byte sequence tokenizes, compilable or not.
Number/string/char literals normalize to the sentinels ``<num>``, ``<str>``,
``<chr>`` so downstream models cannot key on incidental constants; comments
are dropped.  Features are counts of token n-grams hashed with 64-bit
FNV-1a into a power-of-two table, which makes the mapping bit-exact across
platforms and runs.

Features come from one batch path, ``featurize_many``: a compiled regex
lexes each sample, lexemes become integer ids, n-grams are formed and
counted in numpy, and each distinct lexeme n-gram is hashed once per call
(the ids and hashes are memoized; code vocabularies are small).
``featurize`` and ``featurize_code`` are batches of one, and ``tokenize``
runs the same lexer.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    bool true false NULL nullptr new delete class namespace template public
    private protected virtual operator this using try catch throw""".split()
)

# Longest-first so maximal munch falls out of ordered scanning.
C_OPERATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "::",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~", "?", ".",
)

NUM_SENTINEL = "<num>"
STR_SENTINEL = "<str>"
CHR_SENTINEL = "<chr>"

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1

# A number runs on over word characters and dots, and over a sign after an
# exponent letter (1e+5, 0x1p-3).
_NUM_TAIL = r"(?:[\w.]|(?<=[eEpP])[+-])*"

# Skipped text (whitespace, // and /* */ comments, an unterminated /* runs to
# the end), then one token.  Alternatives are tried in order and the first
# that matches wins, the order of the lexer's rules: strings and chars (a
# backslash escapes the next character; unterminated ones run to the end),
# numbers, identifiers, operators longest first, then any other character.
# The token is optional so that skipped text at the end still matches (as
# an empty token, which _lex drops) instead of being re-scanned as tokens.
_LEXEME = (
    r"(?:\s+|//[^\n]*|/\*[\s\S]*?(?:\*/|\Z))*("
    r'"[^"\\]*(?:\\[\s\S]?[^"\\]*)*"?'
    r"|'[^'\\]*(?:\\[\s\S]?[^'\\]*)*'?"
    r"|(?:\d|\.\d)" + _NUM_TAIL +
    r"|[^\W\d]\w*|" + "|".join(map(re.escape, C_OPERATORS)) +
    r"|[\s\S])?")
_OPERATOR_SET = frozenset(C_OPERATORS)


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | identifier | number | string | char | operator | punct
    text: str


@dataclass(frozen=True)
class FeatureVector:
    """Sparse hashed n-gram counts with a cached L2 norm."""

    dims: int
    indices: np.ndarray  # sorted int64 dimensions, each < dims
    counts: np.ndarray   # float64 counts, all > 0
    norm: float

    def __post_init__(self):
        self.indices.setflags(write=False)
        self.counts.setflags(write=False)


def _misfiled(c: str) -> bool:
    """True for a character that ``re`` classes differently from the lexer.

    The lexer's classes are ``str`` methods: a number starts at ``isdigit``,
    an identifier at ``isalpha`` or ``_``.  In ``re``, ``\\d`` is only
    ``isdecimal`` and ``[^\\W\\d]`` also holds the other digits and numerics
    (``'²'``, ``'½'``).  ``\\s`` and ``\\w`` match ``isspace`` and
    ``isalnum`` or ``_`` exactly, so these are the only characters where
    the regex and the rules part.
    """
    return c.isalnum() and not c.isalpha() and not c.isdecimal()


@functools.cache
def _patterns() -> tuple[re.Pattern, re.Pattern]:
    """The lexeme and number-tail regexes, compiled on first use so that
    importing the module (every CLI stage does) does not pay for them."""
    return re.compile(_LEXEME), re.compile(_NUM_TAIL)


def _lex_misfiled(code: str) -> list[str]:
    """Lexemes of ``code`` one regex match at a time, classifying each
    token's first character with the ``str`` methods."""
    lexeme, number_rest = _patterns()
    out, pos = [], 0
    while True:
        m = lexeme.match(code, pos)
        start = m.start(1)
        if start < 0:
            return out
        c = code[start]
        if c.isdigit() or (c == "." and code[start + 1:start + 2].isdigit()):
            end = number_rest.match(code, start + 1).end()
        elif _misfiled(c):  # a numeric that is no digit: a punct of its own
            end = start + 1
        else:
            end = m.end(1)
        out.append(code[start:end])
        pos = end


def _lex(code: str) -> list[str]:
    """The raw text of each token of ``code``, in order."""
    if not code.isascii() and any(map(_misfiled, set(code))):
        return _lex_misfiled(code)
    toks = _patterns()[0].findall(code)
    while toks and not toks[-1]:  # trailing skipped text matches no token
        toks.pop()
    return toks


def _classify(raw: str) -> tuple[str, str]:
    """(kind, normalized text) of one raw token."""
    c = raw[0]
    if c == '"':
        return "string", STR_SENTINEL
    if c == "'":
        return "char", CHR_SENTINEL
    if c.isdigit() or (c == "." and raw[1:2].isdigit()):
        return "number", NUM_SENTINEL
    if c.isalpha() or c == "_":
        return ("keyword" if raw in C_KEYWORDS else "identifier"), raw
    return ("operator" if raw in _OPERATOR_SET else "punct"), raw


def tokenize(code: str) -> list[Token]:
    """Lex ``code`` into tokens; never fails on arbitrary text."""
    return [Token(*_classify(raw)) for raw in _lex(code)]


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a, specified bit-exactly."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _U64
    return h


def _gram_hash(lexemes) -> int:
    return fnv1a64("\x1f".join(lexemes).encode("utf-8"))


@dataclass(frozen=True)
class FeaturizerConfig:
    dims: int = 1 << 18
    ngram_orders: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        if self.dims <= 0 or self.dims & (self.dims - 1):
            raise ValueError(f"dims must be a power of two, got {self.dims}")
        if not self.ngram_orders or any(o < 1 for o in self.ngram_orders):
            raise ValueError(f"bad ngram orders {self.ngram_orders}")


def ngram_dimension(lexemes: tuple[str, ...], dims: int) -> int:
    """Hash a lexeme n-gram into a table dimension ( '\\x1f' joins grams)."""
    return _gram_hash(lexemes) & (dims - 1)


class _Vocab:
    """Lexeme ids and n-gram hashes of one featurizing call.

    Ids number the normalized lexemes in first-seen order; ``raw`` maps the
    lexer's raw token text (a literal's own text included) to the id of its
    normalized lexeme, and ``hashes`` an n-gram of ids to its unmasked
    FNV-1a hash.  Both grow with the vocabulary of the code featurized, not
    with its length.
    """

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.texts: list[str] = []
        self.raw: dict[str, int] = {}
        self.hashes: dict[tuple[int, ...], int] = {}

    def intern(self, text: str) -> int:
        i = self.ids.get(text)
        if i is None:
            i = self.ids[text] = len(self.texts)
            self.texts.append(text)
        return i

    def text_ids(self, texts: list[str]) -> np.ndarray:
        """Ids of normalized lexemes."""
        for t in set(texts).difference(self.ids):
            self.intern(t)
        return np.fromiter(map(self.ids.__getitem__, texts), np.int64, len(texts))

    def raw_ids(self, raws: list[str]) -> np.ndarray:
        """Ids of the normalized lexemes of raw tokens."""
        raw = self.raw
        for t in set(raws).difference(raw):
            raw[t] = self.intern(_classify(t)[1])
        return np.fromiter(map(raw.__getitem__, raws), np.int64, len(raws))

    def gram_hashes(self, grams) -> np.ndarray:
        """Unmasked hash of each id n-gram (a tuple of ids)."""
        hashes, texts = self.hashes, self.texts
        out = np.empty(len(grams), np.uint64)
        for j, g in enumerate(grams):
            h = hashes.get(g)
            if h is None:
                h = hashes[g] = _gram_hash([texts[i] for i in g])
            out[j] = h
        return out


# Samples per counting chunk: bounds the n-gram arrays held at once.
_CHUNK_ROWS = 512


def _count(vocab: _Vocab, ids: np.ndarray, lens: np.ndarray, config: FeaturizerConfig):
    """Hashed n-gram counts of rows given as concatenated lexeme ids.

    Returns (nonzeros per row, indices, data): each row's dimensions sorted,
    counts additive under hash collision, as float64.
    """
    n = len(lens)
    shift = config.dims.bit_length() - 1
    row_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    left = np.repeat(np.cumsum(lens), lens) - np.arange(len(ids))  # tokens to row end
    width = len(vocab.texts)
    keys = [np.empty(0, np.int64)]
    for order in config.ngram_orders:
        starts = np.flatnonzero(left >= order)
        if not starts.size:  # no row is this long
            continue
        code, bound = ids[starts], width
        for j in range(1, order):
            if bound * width >= 1 << 63:  # re-number the grams so far
                _, code = np.unique(code, return_inverse=True)
                bound = int(code.max()) + 1
            code = code * width + ids[starts + j]
            bound *= width
        _, first, inv = np.unique(code, return_index=True, return_inverse=True)
        at = starts[first]
        grams = list(zip(*(ids[at + j].tolist() for j in range(order))))
        dim = (vocab.gram_hashes(grams) & np.uint64(config.dims - 1)).astype(np.int64)
        keys.append((row_of[starts] << shift) | dim[inv])
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    return (np.bincount(keys >> shift, minlength=n), keys & (config.dims - 1),
            counts.astype(np.float64))


def featurize_many(codes, config: FeaturizerConfig = FeaturizerConfig()):
    """CSR arrays (indptr, indices, data) of the hashed n-gram counts of
    each code string, one row per string, indices sorted within a row."""
    codes = list(codes)
    vocab = _Vocab()
    # row << shift | dimension must fit in int64
    step = min(_CHUNK_ROWS, 1 << max(0, 63 - (config.dims.bit_length() - 1)))
    row_nnz, indices, data = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for lo in range(0, len(codes), step):
        raws, lens = [], []
        for code in codes[lo:lo + step]:
            toks = _lex(code)
            raws += toks
            lens.append(len(toks))
        nnz, idx, cnt = _count(vocab, vocab.raw_ids(raws), np.array(lens, np.int64), config)
        row_nnz.append(nnz)
        indices.append(idx)
        data.append(cnt)
    indptr = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
    return indptr, np.concatenate(indices), np.concatenate(data)


def _vector(dims: int, indices: np.ndarray, counts: np.ndarray) -> FeatureVector:
    return FeatureVector(dims, indices, counts, float(np.sqrt(np.dot(counts, counts))))


def featurize(tokens: list[Token], config: FeaturizerConfig = FeaturizerConfig()) -> FeatureVector:
    """Map a token stream to hashed n-gram counts.

    Counts are additive under hash collision.  Deterministic across runs
    and platforms (fixed hash, fixed sentinel normalization).
    """
    vocab = _Vocab()
    ids = vocab.text_ids([t.text for t in tokens])
    _, indices, counts = _count(vocab, ids, np.array([len(ids)]), config)
    return _vector(config.dims, indices, counts)


def featurize_code(code: str, config: FeaturizerConfig = FeaturizerConfig()) -> FeatureVector:
    _, indices, counts = featurize_many([code], config)
    return _vector(config.dims, indices, counts)


def stack_features(vectors: list[FeatureVector]):
    """CSR-style arrays (indptr, indices, data) over a list of FeatureVectors."""
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, v in enumerate(vectors):
        indptr[i + 1] = indptr[i] + len(v.indices)
    indices = np.concatenate([v.indices for v in vectors]) if vectors else np.empty(0, np.int64)
    data = np.concatenate([v.counts for v in vectors]) if vectors else np.empty(0)
    return indptr, indices, data
