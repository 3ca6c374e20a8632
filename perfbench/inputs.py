"""Workload definitions and the seeded input generator.

The benchmark's seed only decides the words of the corpora. Every word is
seven characters long and every body has the same number of words, so the
bytes the program writes do not depend on the seed. The traffic shape
comes from a fixed per-workload sim seed, so message and delivery counts
are the same on every seed, while content (and so every verdict) varies.
"""

from __future__ import annotations

import random
import shlex
import string
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SH_DIR = HERE / "sh"

WORD_LEN = 7
# Carried by some spam bodies (and a few ham ones); the external user-level
# filter flags any message whose body holds it as a whole word.
MARKER = "qzmarkq"
SPAM_SENDER_DOMAIN = "bulkmail.example.net"
# Set in the environment of traced runs: the wrapper scripts append one
# byte per start to this file.
SPAWN_LOG_ENV = "SPAMBENCH_SPAWNS"

# Filter options written into every scenario; the oracle reads the same
# values, never the program's defaults.
BAYES_N = 15
BAYES_THRESHOLD = 0.9
BAYES_MIN_USER_MESSAGES = 5
VOLUME_WINDOW = 1500
VOLUME_THRESHOLD = 100
CHECKSUM_THRESHOLD = 5


# Make-up of the corpora that is the same on every workload.
TOPIC_WORDS = 600  # words private to one ham topic
SPAM_WORDS = 400  # words private to spam
SHARED_WORDS = 200  # words used by ham and spam alike
LINES = 3  # per body
WORDS_PER_LINE = 10
SHARED_SHARE = 0.2  # chance that a body word is a shared one


@dataclass(frozen=True)
class CorpusShape:
    """Make-up of the generated corpora that differs between workloads."""

    topics: int = 4
    ham_bodies: int = 80  # per topic
    spam_bodies: int = 40
    marker_spam: float = 0.0  # chance that a spam body carries MARKER
    marker_ham: float = 0.0
    # Whether ham words may also be spelled so that their tokens split or
    # shrink. Off where random_words draws its dictionary from ham tokens:
    # equal-length tokens keep that workload's bytes the same on every seed.
    split_ham_tokens: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    sim: dict
    scenario: dict
    corpus: CorpusShape = field(default_factory=CorpusShape)
    external: bool = False


MEDIUM_SIM = {
    "n_users": 500,
    "n_mailing_lists": 5,
    "n_spammers": 10,
    "sigma": 10.0,
    "seed": 2004,
    "steps": 500,
    "target_spam_fraction": 0.4,
    "recipients_mean": 1.3,
    "send_prob": 0.1,
    "activation_prob": 0.05,
    "burst_rate": 50,
    "spammer_db_size": 200,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="user-bayes",
            sim=MEDIUM_SIM,
            scenario={
                "level": "U",
                "filters": "bayes U; volume S; checksum S; checksum-fuzzy S; pass-all U",
                "training_steps": 100,
                "eval_steps": 90,
            },
        ),
        Workload(
            name="server-bulk",
            sim=dict(MEDIUM_SIM, seed=2005),
            scenario={
                "level": "S",
                "personalized": "true",
                "bogus_headers": "true",
                "random_words": "true",
                "filters": "bayes S; volume S; checksum S; checksum-fuzzy S; block-all S",
                "training_steps": 100,
                "eval_steps": 120,
            },
            corpus=CorpusShape(split_ham_tokens=False),
        ),
        Workload(
            name="external-wrapper",
            sim=dict(
                MEDIUM_SIM,
                n_users=60,
                n_mailing_lists=1,
                n_spammers=3,
                seed=2006,
                spammer_db_size=20,
                burst_rate=20,
            ),
            scenario={
                "level": "U",
                "filters": "marker U; sender S; pass-all U",
                "training_steps": 30,
                "eval_steps": 90,
            },
            corpus=CorpusShape(
                topics=2, ham_bodies=40, spam_bodies=20,
                marker_spam=0.8, marker_ham=0.05,
            ),
            external=True,
        ),
    )
}


@dataclass
class Inputs:
    """Paths of one workload's generated inputs plus the bodies as made."""

    root: Path
    scenario_path: Path
    sim_path: Path  # replaced by the calibrated config before the first run
    uncalibrated_path: Path
    trainer_state: Path
    ham: dict[str, list[str]]  # topic -> bodies, in file order
    spam: list[str]


# Spellings that exercise the tokenizer (case folding; ' - $ and digits
# inside a token) while every token stays WORD_LEN long, so the random-word
# dictionary built from ham has the same bytes on every seed.
_SAME_LENGTH = (
    lambda w: w.capitalize(),
    lambda w: w.upper(),
    lambda w: w[:3] + "-" + w[4:],
    lambda w: w[:4] + "'" + w[5:],
    lambda w: "$" + w[1:],
    lambda w: w[:2] + "7" + w[3:],
)
# Spellings whose tokens are shorter or split: a two-letter token, an
# underscore or full stop as separator, a dropped one-letter run.
_SPLIT = (
    lambda w: w[:2] + " " + w[3:],
    lambda w: w[:1] + "_" + w[2:],
    lambda w: w[:3] + "." + w[4:],
    lambda w: w[:1] + "!" + w[2:],
)
VARIANT_SHARE = 0.3


def _vocabulary(rng, n: int, taken: set[str], spellings=_SAME_LENGTH) -> list[str]:
    words = []
    while len(words) < n:
        w = "".join(rng.choice(string.ascii_lowercase) for _ in range(WORD_LEN))
        if rng.random() < VARIANT_SHARE:
            w = rng.choice(spellings)(w)
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _bodies(rng, own, shared, n: int, marker_p: float):
    """n bodies; the private words are cycled through first so that every
    one of them appears, then drawn at random."""
    per_body = LINES * WORDS_PER_LINE
    cursor = 0
    bodies = []
    for _ in range(n):
        words = []
        for _ in range(per_body):
            if cursor < len(own):
                words.append(own[cursor])
                cursor += 1
            elif rng.random() < SHARED_SHARE:
                words.append(rng.choice(shared))
            else:
                words.append(rng.choice(own))
        if rng.random() < marker_p:
            words[rng.randrange(per_body)] = MARKER
        lines = [
            " ".join(words[i : i + WORDS_PER_LINE])
            for i in range(0, per_body, WORDS_PER_LINE)
        ]
        bodies.append("\n".join(lines))  # no final newline, as in real mail
    return bodies


def make_corpora(shape: CorpusShape, seed: int):
    """(ham by topic, spam bodies) for a seed."""
    rng = random.Random(seed)
    taken = {MARKER}
    ham_spellings = _SAME_LENGTH + (_SPLIT if shape.split_ham_tokens else ())
    shared = _vocabulary(rng, SHARED_WORDS, taken, ham_spellings)
    ham = {}
    for t in range(shape.topics):
        own = _vocabulary(rng, TOPIC_WORDS, taken, ham_spellings)
        ham[f"topic{t}"] = _bodies(rng, own, shared, shape.ham_bodies, shape.marker_ham)
    spam_own = _vocabulary(rng, SPAM_WORDS, taken, _SAME_LENGTH + _SPLIT)
    spam = _bodies(rng, spam_own, shared, shape.spam_bodies, shape.marker_spam)
    return ham, spam


def _sh(script: str, *args) -> str:
    return " ".join(shlex.quote(str(a)) for a in ("sh", SH_DIR / script, *args))


def write_kv(path: Path, values: dict) -> None:
    """Write a spamlab "key = value" config file."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


def generate(workload: Workload, seed: int, root: Path) -> Inputs:
    """Write corpora, sim.cfg and scenario.cfg for a workload under root."""
    ham, spam = make_corpora(workload.corpus, seed)
    for topic, bodies in ham.items():
        d = root / "corpora" / "ham" / topic
        d.mkdir(parents=True)
        for i, body in enumerate(bodies):
            (d / f"{i:03d}.txt").write_text(body, encoding="utf-8")
    d = root / "corpora" / "spam"
    d.mkdir(parents=True)
    for i, body in enumerate(spam):
        (d / f"{i:03d}.txt").write_text(body, encoding="utf-8")

    sim_path = root / "sim.cfg"
    write_kv(sim_path, workload.sim)
    uncalibrated_path = root / "sim.uncalibrated.cfg"
    write_kv(uncalibrated_path, workload.sim)
    trainer_state = root / "trainer.state"
    scenario = {
        "name": workload.name,
        "ham_corpus": "corpora/ham",
        "spam_corpus": "corpora/spam",
        "sim": "sim.cfg",
        "personalized": "false",
        **workload.scenario,
        "bayes.n": BAYES_N,
        "bayes.threshold": BAYES_THRESHOLD,
        "bayes.min_user_messages": BAYES_MIN_USER_MESSAGES,
        "volume.window": VOLUME_WINDOW,
        "volume.threshold": VOLUME_THRESHOLD,
        "checksum.threshold": CHECKSUM_THRESHOLD,
        "checksum-fuzzy.threshold": CHECKSUM_THRESHOLD,
    }
    if workload.external:
        scenario["external.marker"] = _sh("marker_filter.sh", MARKER, trainer_state)
        scenario["trainer.marker"] = _sh("count_trainer.sh", trainer_state)
        scenario["external.sender"] = _sh("sender_filter.sh", SPAM_SENDER_DOMAIN)
        scenario["connlog.sender"] = "true"
    scenario_path = root / "scenario.cfg"
    write_kv(scenario_path, scenario)
    return Inputs(root, scenario_path, sim_path, uncalibrated_path, trainer_state, ham, spam)
