"""Naive Bayesian content filter.

Estimates a per-word spam probability from labelled training mail, picks
the most polarized words of an incoming message, and combines them with
Bayes rule into a spam posterior that is compared against a threshold.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Label, Verdict, parse_message, split_mbox, tokenize
from .errors import EmptyTrainingSet

DEFAULT_N_INTERESTING = 15
DEFAULT_THRESHOLD = 0.9

# Per-word probabilities are clamped away from 0 and 1: the ratio formula
# is degenerate there and unseen words must stay neutral.
P_MIN = 0.01
P_MAX = 0.99
P_NEUTRAL = 0.5


@dataclass
class BayesModel:
    """Word occurrence counts and classification parameters.

    Immutable by convention after training; classification never writes.
    """

    spam_count: Counter = field(default_factory=Counter)
    ham_count: Counter = field(default_factory=Counter)
    n_spam_msgs: int = 0
    n_ham_msgs: int = 0
    n_interesting: int = DEFAULT_N_INTERESTING
    threshold: float = DEFAULT_THRESHOLD
    prior_spam: float = 0.5


def word_spaminess(model: BayesModel, word: str) -> float:
    """Probability that a word occurs in spam rather than ham.

    Computed as (S(w)/N_S) / (S(w)/N_S + H(w)/N_H), clamped to
    [0.01, 0.99]. Words absent from both training sets are neutral (0.5).
    """
    s = model.spam_count.get(word, 0) / model.n_spam_msgs
    h = model.ham_count.get(word, 0) / model.n_ham_msgs
    if s == 0.0 and h == 0.0:
        return P_NEUTRAL
    return min(P_MAX, max(P_MIN, s / (s + h)))


def interesting_words(model: BayesModel, m) -> list[str]:
    """The distinct tokens of subject+body whose spaminess is farthest
    from 0.5, at most n_interesting of them.

    Ties break by lexicographic token order so results are deterministic.
    """
    distinct = set(tokenize(m.subject)) | set(tokenize(m.body))
    ranked = sorted(
        distinct, key=lambda w: (-abs(word_spaminess(model, w) - 0.5), w)
    )
    return ranked[: model.n_interesting]


def combine_spam_probability(probs, prior_spam: float) -> float:
    """Two-class Bayes posterior for a list of per-word spam probabilities.

    Returns P(S)*prod(p_i) / (P(S)*prod(p_i) + P(H)*prod(1-p_i)), computed
    in log space so long word lists cannot underflow. An empty list yields
    the prior.
    """
    probs = list(probs)
    if not probs:
        return prior_spam
    log_spam = math.log(prior_spam) + sum(math.log(p) for p in probs)
    log_ham = math.log1p(-prior_spam) + sum(math.log1p(-p) for p in probs)
    top = max(log_spam, log_ham)
    e_spam = math.exp(log_spam - top)
    e_ham = math.exp(log_ham - top)
    return e_spam / (e_spam + e_ham)


def posterior_spam(model: BayesModel, words) -> float:
    """Spam posterior for a word list under the trained model."""
    return combine_spam_probability(
        (word_spaminess(model, w) for w in words), model.prior_spam
    )


def bayes_classify(model: BayesModel, m) -> Verdict:
    """Classify a message: SPAM iff the posterior strictly exceeds the
    threshold. Messages yielding zero tokens are HAM with the prior as
    score."""
    words = interesting_words(model, m)
    if not words:
        return Verdict(Label.HAM, model.prior_spam)
    p = posterior_spam(model, words)
    label = Label.SPAM if p > model.threshold else Label.HAM
    return Verdict(label, p)


def train_bayes(
    ham: str | Path,
    spam: str | Path,
    n: int = DEFAULT_N_INTERESTING,
    threshold: float = DEFAULT_THRESHOLD,
) -> BayesModel:
    """Train a model from one ham and one spam mbox (see train_messages)."""
    return train_messages(_read_mbox(ham), _read_mbox(spam), n, threshold)


def _read_mbox(path: str | Path):
    """Parse the messages of an mbox file, one at a time.

    A generator: the file is read at the first next(), so train_bayes
    never holds the ham and the spam mbox in memory together.
    """
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
    for entry in split_mbox(text):
        yield parse_message(entry)


def train_messages(
    ham,
    spam,
    n: int = DEFAULT_N_INTERESTING,
    threshold: float = DEFAULT_THRESHOLD,
) -> BayesModel:
    """Train a model from ham and spam messages (anything with a subject
    and a body).

    Token occurrences are counted with multiplicity over subject+body of
    each message; N_S and N_H are message counts and the spam prior is
    N_S/(N_S+N_H). All ham is counted before spam is iterated. Raises
    EmptyTrainingSet when either side has no messages.
    """
    ham_count, n_ham = _count_tokens(ham)
    spam_count, n_spam = _count_tokens(spam)
    if n_ham == 0 or n_spam == 0:
        raise EmptyTrainingSet(f"ham={n_ham} spam={n_spam}")
    return BayesModel(
        spam_count=spam_count,
        ham_count=ham_count,
        n_spam_msgs=n_spam,
        n_ham_msgs=n_ham,
        n_interesting=n,
        threshold=threshold,
        prior_spam=n_spam / (n_spam + n_ham),
    )


def _count_tokens(messages) -> tuple[Counter, int]:
    counts: Counter = Counter()
    n = 0
    for m in messages:
        counts.update(tokenize(m.subject))
        counts.update(tokenize(m.body))
        n += 1
    return counts, n
