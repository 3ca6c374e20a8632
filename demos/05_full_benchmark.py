#!/usr/bin/env python3
"""End-to-end benchmark: scenario files, ranked tables, and the FAR/FRR plot.

Writes corpora and config files to a temporary directory, then runs the
same filter lineup against plain and personalized spam. Personalization
helps the traffic-analysis filters (more connections per delivered
message) while the user-level Bayes filter stays on top.
"""

import random
import tempfile
from pathlib import Path

from spamlab.evalcli import load_scenario, run_scenario

HAM_VOCAB = [f"hamword{i:03d}" for i in range(120)]
SPAM_VOCAB = [f"spamword{i:03d}" for i in range(120)]


def write_corpus(directory, vocabulary, n_bodies, seed):
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n_bodies):
        body = " ".join(rng.choice(vocabulary) for _ in range(14))
        (directory / f"{i:03d}.txt").write_text(body, encoding="utf-8")


SCENARIO = (
    "name = {name}\n"
    "level = U\n"
    "personalized = {personalized}\n"
    "ham_corpus = corpora/ham\n"
    "spam_corpus = corpora/spam\n"
    "sim = sim.cfg\n"
    "filters = bayes U; volume S; checksum-fuzzy S; pass-all U\n"
    "volume.threshold = 25\n"
    "training_steps = 40\n"
    "eval_steps = 80\n"
)


with tempfile.TemporaryDirectory(prefix="spamlab-demo-") as tmp:
    root = Path(tmp)
    half = len(HAM_VOCAB) // 2
    write_corpus(root / "corpora" / "ham" / "alpha", HAM_VOCAB[:half], 120, 1)
    write_corpus(root / "corpora" / "ham" / "beta", HAM_VOCAB[half:], 120, 2)
    write_corpus(root / "corpora" / "spam", SPAM_VOCAB, 60, 3)

    (root / "sim.cfg").write_text(
        "n_users = 40\n"
        "n_mailing_lists = 1\n"
        "n_spammers = 2\n"
        "sigma = 5.0\n"
        "seed = 13\n"
        "steps = 200\n"
        "target_spam_fraction = 0.4\n"
        "recipients_mean = 1.3\n"
        "send_prob = 0.15\n"
        "activation_prob = 0.1\n"
        "burst_rate = 10\n"
        "spammer_db_size = 10\n"
    )

    for name, personalized in (("plain-spam", "false"), ("personalized-spam", "true")):
        cfg = root / f"{name}.cfg"
        cfg.write_text(SCENARIO.format(name=name, personalized=personalized))
        out = root / "runs" / name
        run_scenario(load_scenario(cfg), out)
        print(f"=== {name} ===")
        print((out / "results.txt").read_text())
        svg = (out / "farfrr.svg").read_text()
        print(f"farfrr.svg plots {svg.count('<circle')} filters in the FAR/FRR plane")
        print()
