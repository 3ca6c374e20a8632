#!/usr/bin/env python3
"""The traffic generator: topic groups, locality, bursts, calibration.

Runs a seeded world, shows who sends what, plots the recipient-distance
histogram as text, and calibrates the spammer activation probability to a
40% spam share.
"""

import random
from collections import Counter
from dataclasses import replace

from spamlab.corpus import Corpus, Label
from spamlab.trafficgen import (
    SimConfig,
    World,
    calibrate_spam_fraction,
    measure_spam_fraction,
    step,
)


def corpus(topic, words, n_bodies, seed):
    rng = random.Random(seed)
    bodies = tuple(
        " ".join(rng.choice(words) for _ in range(14)) for _ in range(n_bodies)
    )
    return Corpus(topic=topic, bodies=bodies, source_path="<demo>")


HAM_CORPORA = [
    corpus("cooking", ["stew", "dough", "simmer", "roast", "knead"], 40, 1),
    corpus("astronomy", ["nebula", "orbit", "transit", "eclipse", "flare"], 40, 2),
]
SPAM_CORPUS = corpus("spam", ["offer", "winner", "cheap", "click", "prize"], 30, 3)

config = SimConfig(
    n_users=120, n_mailing_lists=2, n_spammers=3,
    sigma=6.0, seed=42, send_prob=0.12,
    activation_prob=0.05, burst_rate=25, spammer_db_size=25,
    target_spam_fraction=0.4,
)

rng = random.Random(config.seed)
world = World(config, HAM_CORPORA, SPAM_CORPUS, rng)

messages = []
for _ in range(150):
    messages.extend(m for m, _entry in step(world, rng))

by_truth = Counter(m.truth for m in messages)
print(f"{len(messages)} messages over 150 steps:"
      f" {by_truth[Label.HAM]} ham, {by_truth[Label.SPAM]} spam")
print(f"recipient-weighted spam fraction: {measure_spam_fraction(messages):.3f}")

print("\nrecipient circular distance for ham mail (sigma = 6):")
distances = Counter()
for m in messages:
    if m.truth is Label.HAM and m.from_addr.startswith("user"):
        sender = int(m.from_addr.split("@")[0][4:])
        for addr in m.recipients:
            recipient = int(addr.split("@")[0][4:])
            delta = (recipient - sender) % config.n_users
            distances[min(delta, config.n_users - delta)] += 1
scale = max(distances.values())
for d in range(1, 16):
    bar = "#" * round(40 * distances.get(d, 0) / scale)
    print(f"  {d:3d} {bar}")

print("\ncalibrating activation probability for the 40% target...")
calibrated = calibrate_spam_fraction(replace(config, steps=1500))
print(f"  activation_prob {config.activation_prob} ->"
      f" {calibrated.activation_prob:.5f}")

rng = random.Random(calibrated.seed)
world = World(calibrated, HAM_CORPORA, SPAM_CORPUS, rng)
check = []
for _ in range(600):
    check.extend(m for m, _entry in step(world, rng))
print(f"  long-run spam fraction: {measure_spam_fraction(check):.3f}")
