"""Naive Bayesian content filter.

Estimates a per-word spam probability from labelled training mail (a
word the model did not count is neutral and is never stored), picks the
most polarized words of an incoming message, and combines them with Bayes
rule into a spam posterior that is compared against a threshold.

Every function that tokenizes takes an optional token lookup (text ->
tokens), plain tokenize by default. A filter that sees the same texts
again and again passes a TokenMemo instead, which keeps the tokens of
every text it is asked for twice.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .corpus import Label, Verdict, parse_message, split_mbox, tokenize
from .errors import ConfigInvalid
from .memo import Memo

DEFAULT_N_INTERESTING = 15
DEFAULT_THRESHOLD = 0.9

# Per-word probabilities are clamped away from 0 and 1: the ratio formula
# is degenerate there and unseen words must stay neutral.
P_MIN = 0.01
P_MAX = 0.99
P_NEUTRAL = 0.5


class TokenMemo(Memo):
    """Token lookup that keeps the tokens of the texts that recur.

    Call it like tokenize; it returns a tuple of tokens. It is a Memo: a
    text is tokenized at its first and second lookup, stored from the
    second, and later lookups return the stored tuple, so a text seen
    once, like most personalized spam, is never held. Give each filter
    its own memo and let it go with the filter. Only the tokens it keeps
    are interned, so the texts held share one copy of each word.
    """

    def __init__(self):
        # tokenize is looked up at each call, so a patch on it sees them all
        super().__init__(lambda text: tuple(tokenize(text)))

    def __setitem__(self, text, tokens):
        super().__setitem__(text, tuple(map(sys.intern, tokens)))


class Text(NamedTuple):
    """The message fields Bayes reads, as a hashable key."""

    subject: str
    body: str


@dataclass
class BayesModel:
    """Word occurrence counts and classification parameters.

    The counts must not change after training: word_spaminess fills the
    spaminess table (word -> p) as classification asks for words, with
    the words this model counted only (any other word is neutral), so a
    changed count would leave its entries stale. The table is left out of
    repr and ==, and dataclasses.replace gives the copy an empty one.
    """

    spam_count: Counter = field(default_factory=Counter)
    ham_count: Counter = field(default_factory=Counter)
    n_spam_msgs: int = 0
    n_ham_msgs: int = 0
    n_interesting: int = DEFAULT_N_INTERESTING
    threshold: float = DEFAULT_THRESHOLD
    prior_spam: float = 0.5
    spaminess: dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def _add_spaminess(model: BayesModel, words) -> None:
    """Enter the spaminess of each of words that the model counted, none
    of them in the table yet, into model.spaminess (see word_spaminess)."""
    table = model.spaminess
    spam_count, ham_count = model.spam_count, model.ham_count
    n_spam, n_ham = model.n_spam_msgs, model.n_ham_msgs
    for word in words:
        s = spam_count.get(word, 0) / n_spam
        h = ham_count.get(word, 0) / n_ham
        # a Counter may hold a word at count 0: test the rates, not the keys
        if s or h:
            table[word] = min(P_MAX, max(P_MIN, s / (s + h)))


def word_spaminess(model: BayesModel, word: str) -> float:
    """Probability that a word occurs in spam rather than ham.

    Computed as (S(w)/N_S) / (S(w)/N_S + H(w)/N_H), clamped to
    [0.01, 0.99]. Words absent from both training sets are neutral (0.5)
    and never stored; any other is computed once and kept in the table.
    """
    table = model.spaminess
    if word not in table:
        _add_spaminess(model, (word,))
    return table.get(word, P_NEUTRAL)


def interesting_words(model: BayesModel, m, tokens=None) -> list[str]:
    """The distinct tokens of subject+body whose spaminess is farthest
    from 0.5, at most n_interesting of them.

    Ties break by lexicographic token order so results are deterministic.
    tokens is the token lookup (default tokenize).
    """
    if tokens is None:
        tokens = tokenize
    distinct = set(tokens(m.subject)).union(tokens(m.body))
    table = model.spaminess
    _add_spaminess(model, distinct.difference(table))
    distance = {w: abs(table.get(w, P_NEUTRAL) - 0.5) for w in distinct}
    # sorted is stable, also in reverse: words at one distance keep the
    # lexicographic order of the inner sort
    ranked = sorted(sorted(distinct), key=distance.__getitem__, reverse=True)
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
    table = model.spaminess
    _add_spaminess(model, set(words).difference(table))
    return combine_spam_probability(
        [table.get(w, P_NEUTRAL) for w in words], model.prior_spam
    )


def bayes_classify(model: BayesModel, m, tokens=None) -> Verdict:
    """Classify a message: SPAM iff the posterior strictly exceeds the
    threshold. Messages yielding zero tokens are HAM with the prior as
    score. Only m.subject and m.body are read. tokens is the token lookup
    (default tokenize)."""
    words = interesting_words(model, m, tokens)
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
    tokens=None,
) -> BayesModel:
    """Train a model from one ham and one spam mbox (see train_messages)."""
    return train_messages(
        _read_mbox(ham), _read_mbox(spam), n, threshold, tokens
    )


def _read_mbox(path: str | Path):
    """Parse the messages of an mbox file, one at a time.

    A generator: the file is read at the first next(), so train_bayes
    never holds the ham and the spam mbox in memory together, and
    split_mbox cuts out one message text at a time, so beside the file's
    text only the message being counted is held.
    """
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
    for entry in split_mbox(text):
        yield parse_message(entry)


def train_messages(
    ham,
    spam,
    n: int = DEFAULT_N_INTERESTING,
    threshold: float = DEFAULT_THRESHOLD,
    tokens=None,
) -> BayesModel:
    """Train a model from ham and spam messages (anything with a subject
    and a body).

    Token occurrences are counted with multiplicity over subject+body of
    each message; N_S and N_H are message counts and the spam prior is
    N_S/(N_S+N_H). All ham is counted before spam is iterated. tokens is
    the token lookup (default tokenize). Raises ConfigInvalid when
    either side has no messages.
    """
    if tokens is None:
        tokens = tokenize
    ham_count, n_ham = _count_tokens(ham, tokens)
    spam_count, n_spam = _count_tokens(spam, tokens)
    if n_ham == 0 or n_spam == 0:
        raise ConfigInvalid(f"ham={n_ham} spam={n_spam}")
    return BayesModel(
        spam_count=spam_count,
        ham_count=ham_count,
        n_spam_msgs=n_spam,
        n_ham_msgs=n_ham,
        n_interesting=n,
        threshold=threshold,
        prior_spam=n_spam / (n_spam + n_ham),
    )


def _count_tokens(messages, tokens) -> tuple[Counter, int]:
    counts: Counter = Counter()
    n = 0
    for m in messages:
        counts.update(tokens(m.subject))
        counts.update(tokens(m.body))
        n += 1
    return counts, n
