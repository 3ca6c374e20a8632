#!/usr/bin/env python3
"""Training and using the naive Bayesian filter.

Synthesizes labelled mail with distinct vocabularies, trains a model,
inspects per-word spam probabilities, and classifies fresh messages.
"""

import random
import tempfile

from spamlab.bayes import (
    bayes_classify,
    interesting_words,
    train_bayes,
    word_spaminess,
)
from spamlab.corpus import Label, Message
from spamlab.filters import emit_training_sets

HAM_WORDS = ["meeting", "agenda", "quarterly", "review", "deadline",
             "lunch", "notes", "draft", "schedule", "thanks"]
SPAM_WORDS = ["winner", "prize", "viagra", "cheap", "offer",
              "click", "free", "casino", "pills", "urgent"]


def message(body, truth):
    return Message(
        from_addr="a@b.c", to_addrs=("u@example.org",), cc_addrs=(),
        bcc_addrs=(), subject="", message_id="<x@y>",
        received_headers=(), body=body, truth=truth,
        origin_host="h", step=0,
    )


rng = random.Random(0)
stream = []
for _ in range(60):
    stream.append(message(
        " ".join(rng.choice(HAM_WORDS) for _ in range(12)), Label.HAM))
    stream.append(message(
        " ".join(rng.choice(SPAM_WORDS) for _ in range(12)), Label.SPAM))

with tempfile.TemporaryDirectory(prefix="spamlab-demo-") as out:
    ham_paths, spam_paths = emit_training_sets(stream, out)
    model = train_bayes(ham_paths[0], spam_paths[0], n=15, threshold=0.9)
print(f"trained on {model.n_ham_msgs} ham / {model.n_spam_msgs} spam messages")

print("\nper-word spam probabilities:")
for word in ("viagra", "meeting", "offer", "agenda", "never-seen-word"):
    print(f"  {word:16s} {word_spaminess(model, word):.3f}")

samples = [
    "meeting notes and the quarterly agenda",
    "click here cheap pills free offer",
    "meeting about the casino offer",
]
print("\nclassification (threshold 0.9):")
for body in samples:
    m = message(body, Label.HAM)
    verdict = bayes_classify(model, m)
    picked = interesting_words(model, m)
    print(f"  {body!r}")
    print(f"    -> {verdict.label.value} (posterior {verdict.score:.4f},"
          f" interesting words {picked[:4]}...)")
