import random
import shlex

import pytest

from spamlab.corpus import Label, Message


def make_message(
    body="hello there",
    subject="greetings",
    truth=Label.HAM,
    to=("user1@example.org",),
    cc=(),
    bcc=(),
    from_addr="user0@example.org",
    origin_host="host0.client.example",
    step=0,
    message_id="<1.0@host0.client.example>",
    received=("from host0.client.example by mx.example.org; step 0 seq 1",),
):
    return Message(
        from_addr=from_addr,
        to_addrs=tuple(to),
        cc_addrs=tuple(cc),
        bcc_addrs=tuple(bcc),
        subject=subject,
        message_id=message_id,
        received_headers=tuple(received),
        body=body,
        truth=truth,
        origin_host=origin_host,
        step=step,
    )


@pytest.fixture
def msg_factory():
    return make_message


def write_corpus_dir(root, name, bodies):
    """Materialize a topic corpus directory with one file per body."""
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    for i, body in enumerate(bodies):
        (d / f"{i:03d}.txt").write_text(body, encoding="utf-8")
    return d


def synth_bodies(vocabulary, n_messages, words_per_message, seed):
    """Deterministic bodies drawn from a fixed vocabulary.

    Every vocabulary word is guaranteed to appear: draws cycle through the
    vocabulary before topping up with random picks.
    """
    rng = random.Random(seed)
    bodies = []
    cursor = 0
    for _ in range(n_messages):
        words = []
        for _ in range(words_per_message):
            if cursor < len(vocabulary):
                words.append(vocabulary[cursor])
                cursor += 1
            else:
                words.append(rng.choice(vocabulary))
        bodies.append(" ".join(words))
    return bodies


def random_bodies(vocabulary, n_messages, words_per_message, seed):
    """Bodies of uniform vocabulary draws, so word sets overlap across
    bodies the way real corpora do."""
    rng = random.Random(seed)
    return [
        " ".join(rng.choice(vocabulary) for _ in range(words_per_message))
        for _ in range(n_messages)
    ]


@pytest.fixture
def corpus_tools():
    return write_corpus_dir, synth_bodies


DEFAULT_SIM = {
    "n_users": 40,
    "n_mailing_lists": 1,
    "n_spammers": 2,
    "sigma": 5.0,
    "seed": 13,
    "steps": 200,
    "target_spam_fraction": 0.4,
    "recipients_mean": 1.3,
    "send_prob": 0.15,
    "activation_prob": 0.1,
    "burst_rate": 10,
    "spammer_db_size": 10,
}

DEFAULT_SCENARIO = {
    "name": "mini",
    "level": "U",
    "personalized": "false",
    "ham_corpus": "corpora/ham",
    "spam_corpus": "corpora/spam",
    "sim": "sim.cfg",
    "filters": "bayes U; volume S; checksum-fuzzy S; pass-all U",
    "training_steps": 40,
    "eval_steps": 60,
}


def build_scenario_files(root, sim_overrides=None, scenario_overrides=None):
    """Write corpora, sim.cfg, and scenario.cfg under root; return the
    scenario path."""
    ham_vocab = [f"hamword{i:03d}" for i in range(120)]
    spam_vocab = [f"spamword{i:03d}" for i in range(120)]
    half = len(ham_vocab) // 2
    write_corpus_dir(
        root / "corpora" / "ham", "alpha", random_bodies(ham_vocab[:half], 120, 14, 1)
    )
    write_corpus_dir(
        root / "corpora" / "ham", "beta", random_bodies(ham_vocab[half:], 120, 14, 2)
    )
    write_corpus_dir(
        root / "corpora", "spam", random_bodies(spam_vocab, 60, 14, 3)
    )

    sim = dict(DEFAULT_SIM, **(sim_overrides or {}))
    (root / "sim.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in sim.items()), encoding="utf-8"
    )
    scenario = dict(DEFAULT_SCENARIO, **(scenario_overrides or {}))
    path = root / "scenario.cfg"
    path.write_text(
        "".join(f"{k} = {v}\n" for k, v in scenario.items()), encoding="utf-8"
    )
    return path


@pytest.fixture
def scenario_builder():
    return build_scenario_files


def sh(script):
    return f"sh -c {shlex.quote(script)}"


# a user-level keyword wrapper, and a server-level one that answers from the
# length of the connection log and exits 1 unless the log's last line is
# the message's own connection, flushed before the wrapper started
KEYWORD = sh("if grep -q spamword; then echo spam; else echo ham; fi")
LOG_PARITY = sh(
    "from=$(sed -n 's/^From: //p' | head -n 1);"
    ' case "$(tail -n 1 "$SPAMLAB_CONNLOG")" in *"\t$from\t"*) ;; *) exit 1 ;; esac;'
    ' n=$(wc -l < "$SPAMLAB_CONNLOG");'
    " if [ $((n % 3)) -eq 0 ]; then echo spam; else echo ham; fi"
)
