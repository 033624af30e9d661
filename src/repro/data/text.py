"""Synthetic topic-model corpus (RCV1 analog).

Documents are token-id sets drawn from a Zipfian topic mixture: each
topic owns a preference over a vocabulary slice plus a shared background
(stopword-like) distribution. Topic proportions are skewed so a handful
of topics dominate, as in RCV1's category distribution. The topic of
each document is its planted stratum; high-frequency background tokens
give Apriori non-trivial frequent itemsets whose support varies with
partition payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorpusConfig:
    """Generator knobs for the synthetic corpus."""

    num_docs: int = 1500
    vocab_size: int = 1200
    num_topics: int = 10
    doc_length_mean: int = 40
    doc_length_spread: int = 15
    tokens_per_topic: int = 120
    background_tokens: int = 40
    background_prob: float = 0.3
    topic_skew: float = 0.8
    zipf_exponent: float = 1.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_docs <= 0 or self.num_topics <= 0:
            raise ValueError("num_docs and num_topics must be positive")
        if self.doc_length_mean - self.doc_length_spread < 1:
            raise ValueError("documents must have at least one token")
        if self.tokens_per_topic + self.background_tokens > self.vocab_size:
            raise ValueError("vocabulary too small for topic + background slices")
        if not 0.0 <= self.background_prob < 1.0:
            raise ValueError("background_prob must be in [0, 1)")


@dataclass
class Corpus:
    """Generated corpus: token-id sets plus planted topic labels."""

    documents: list[list[int]]
    topic_of: np.ndarray
    vocab_size: int

    @property
    def num_docs(self) -> int:
        return len(self.documents)

    def records(self) -> list[list[int]]:
        return self.documents


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), exponent)
    return w / w.sum()


def _cdf(weights: np.ndarray) -> np.ndarray:
    """``weights``' running sum, normalised to end at 1 — what
    ``Generator.choice`` builds from its ``p`` on every call."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, a: np.ndarray, cdf: np.ndarray, n: int) -> np.ndarray:
    """``rng.choice(a, n, p=weights)`` given ``_cdf(weights)``: the same
    draws from the same stream (one ``random`` per draw, located in the
    running sum), without re-summing the weights per document."""
    return a[cdf.searchsorted(rng.random(n), side="right")]


def generate_corpus(config: CorpusConfig) -> Corpus:
    """Generate the corpus described by ``config`` (deterministic in seed)."""
    rng = np.random.default_rng(config.seed)
    # Background slice occupies the lowest token ids (the "stopwords").
    background = np.arange(config.background_tokens)
    bg_cdf = _cdf(_zipf_weights(config.background_tokens, config.zipf_exponent))

    content_pool = np.arange(config.background_tokens, config.vocab_size)
    topic_vocab: list[np.ndarray] = []
    for _t in range(config.num_topics):
        vocab = rng.choice(content_pool, size=config.tokens_per_topic, replace=False)
        topic_vocab.append(vocab)
    topic_cdf = _cdf(_zipf_weights(config.tokens_per_topic, config.zipf_exponent))

    mix = _zipf_weights(config.num_topics, config.topic_skew)
    topics = rng.choice(config.num_topics, size=config.num_docs, p=mix)

    # One int object per token id, shared by every document holding it.
    token = list(range(config.vocab_size))
    documents: list[list[int]] = []
    for t in topics:
        length = int(
            rng.integers(
                config.doc_length_mean - config.doc_length_spread,
                config.doc_length_mean + config.doc_length_spread + 1,
            )
        )
        n_bg = rng.binomial(length, config.background_prob)
        n_topic = length - n_bg
        tokens: set[int] = set()
        if n_bg:
            tokens.update(_draw(rng, background, bg_cdf, n_bg).tolist())
        if n_topic:
            tokens.update(_draw(rng, topic_vocab[int(t)], topic_cdf, n_topic).tolist())
        documents.append([token[x] for x in sorted(tokens)])

    return Corpus(documents=documents, topic_of=topics, vocab_size=config.vocab_size)
