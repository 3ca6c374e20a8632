import dataclasses
import hashlib
import math
import random
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spamlab import trafficgen
from spamlab.corpus import Corpus, Label, render_message
from spamlab.errors import ConfigInvalid, SpamlabError
from spamlab.trafficgen import (
    SIM_SCALE_MAX,
    ConnectionLogEntry,
    SimConfig,
    World,
    _forged_received,
    _randbelow,
    add_random_words,
    calibrate_spam_fraction,
    load_sim_config,
    measure_spam_fraction,
    personalize,
    select_recipients,
    step,
)

HAM_CORPUS = Corpus(
    topic="cooking",
    bodies=(
        "the stew needs more thyme and a slow simmer",
        "proof the dough overnight for an open crumb",
        "deglaze the pan with stock before reducing",
    ),
    source_path="<memory>",
)
SPAM_CORPUS = Corpus(
    topic="spam",
    bodies=(
        "exclusive offer click here for cheap pills",
        "you have won a prize claim your reward today",
    ),
    source_path="<memory>",
)


class SequenceRng:
    """Stand-in rng that replays scripted normal draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def normalvariate(self, mu, sigma):
        return self.draws.pop(0)


def build_world(config, rng=None, **kw):
    rng = rng or random.Random(config.seed)
    return World(config, [HAM_CORPUS], SPAM_CORPUS, rng, **kw), rng


def reference_step_spammer(world, out, sp, rng):
    """The spammer step as it was before forged entries were drawn ahead
    of the message: rng.randint and rng.choice per random word, and a
    second message with the forged entries prepended."""
    if sp.current_body is None:
        if rng.random() >= world.config.activation_prob or not sp.recipients:
            return
        sp.cursor = 0
        sp.current_body = sp.bodies[sp.body_cursor % len(sp.bodies)]
        sp.body_cursor += 1
    chunk = sp.recipients[sp.cursor : sp.cursor + world.config.burst_rate]
    if world.personalize_spam:
        batches = [[t] for t in chunk]
    else:
        batches = [
            list(chunk[i : i + trafficgen.BCC_BATCH_SIZE])
            for i in range(0, len(chunk), trafficgen.BCC_BATCH_SIZE)
        ]
    for batch in batches:
        body = sp.current_body
        to, bcc = [], []
        if world.personalize_spam:
            body = personalize(body, batch[0])
            to = batch
        else:
            bcc = batch
        if world.random_words:
            count = rng.randint(10, 30)
            words = " ".join(rng.choice(world.dictionary) for _ in range(count))
            body = body + "\n\n" + words
        trafficgen._emit(world, out, sp, body, to, [], bcc, Label.SPAM)
        if world.bogus_headers:
            m, entry = out[-1]
            forged = _forged_received(rng.randint(1, 3), rng)
            out[-1] = (replace(m, received_headers=forged + m.received_headers), entry)
    sp.cursor += len(chunk)
    if sp.cursor >= len(sp.recipients):
        sp.current_body = None


def reference_step(world, rng):
    """step(), with each spammer's turn taken by reference_step_spammer."""
    spammers, world.spammers = world.spammers, []
    out = step(world, rng)
    world.step_no -= 1  # the spammers' turn is still in this step
    for sp in spammers:
        reference_step_spammer(world, out, sp, rng)
    world.spammers = spammers
    world.step_no += 1
    return out


def reference_pilot(config, multiplier, steps, seed):
    """The calibration pilot as a per-draw dry run: one rng.random() per
    user and per idle sender, plus each user send's geometric draw."""
    draw = random.Random(seed).random
    n_users, send_prob, burst_rate = config.n_users, config.send_prob, config.burst_rate
    n_lists, n_spammers = config.n_mailing_lists, config.n_spammers
    n_subscribers = min(n_users, max(5, n_users // 10))
    db_size = min(n_users, config.spammer_db_size)
    activation = min(1.0, config.activation_prob * multiplier)
    p = 1.0 / max(config.recipients_mean, 1.0)
    log, log_q = math.log, math.log(1.0 - p) if p < 1.0 else None

    list_remaining = [0] * n_lists
    spam_remaining = [0] * n_spammers
    ham = spam = 0
    for _ in range(steps):
        for _user in range(n_users):
            if draw() < send_prob:
                n = 1 if log_q is None else int(log(1.0 - draw()) / log_q) + 1
                ham += max(1, min(n, n_users - 1))
        for j in range(n_lists):
            if list_remaining[j] == 0:
                if draw() >= send_prob:
                    continue
                list_remaining[j] = n_subscribers
            ham += 1
            list_remaining[j] -= 1
        for k in range(n_spammers):
            if spam_remaining[k] == 0:
                if draw() >= activation:
                    continue
                spam_remaining[k] = db_size
            sent = min(burst_rate, spam_remaining[k])
            spam += sent
            spam_remaining[k] -= sent
    if ham + spam == 0:
        return 0.0
    return spam / (ham + spam)


def bisection_multipliers(config, turns):
    """The multipliers calibrate_spam_fraction tries when the pilot lands
    below the target at each True in turns: the ceiling, then midpoints."""
    lo, hi = 0.0, 1.0 / config.activation_prob
    multipliers = [hi]
    for below in turns:
        mid = (lo + hi) / 2.0
        multipliers.append(mid)
        lo, hi = (mid, hi) if below else (lo, mid)
    return multipliers


class TestSelectRecipients:
    def test_forced_offset(self):
        assert select_recipients(5, 10, 1.0, 1, SequenceRng([2.2])) == [7]

    def test_modular_wrap(self):
        assert select_recipients(9, 10, 1.0, 1, SequenceRng([3.4])) == [2]

    def test_self_draw_is_redrawn(self):
        rng = SequenceRng([0.2, -0.3, 1.4])
        assert select_recipients(5, 10, 1.0, 1, rng) == [6]

    def test_duplicate_draw_is_redrawn(self):
        rng = SequenceRng([1.0, 1.2, -2.0])
        assert select_recipients(5, 10, 1.0, 2, rng) == [6, 3]

    def test_rounding_is_half_away_from_zero(self):
        assert select_recipients(5, 100, 1.0, 1, SequenceRng([2.5])) == [8]
        assert select_recipients(5, 100, 1.0, 1, SequenceRng([-2.5])) == [2]

    def test_redraws_are_bounded_in_a_row(self, monkeypatch):
        monkeypatch.setattr(trafficgen, "REDRAW_LIMIT", 3)
        rng = SequenceRng([0.0, 0.0, 1.0, 1.0, 0.0, 2.0])
        assert select_recipients(5, 10, 1.0, 2, rng) == [6, 7]
        with pytest.raises(ConfigInvalid):
            select_recipients(5, 10, 1.0, 2, SequenceRng([1.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("n_users, sigma, k", [
        (40, 0.01, 1),  # every offset rounds to 0, the sender
        (500, 10.0, 499),  # users 250 away are 25 sigma out
        (10, 1.0, 10),  # k >= n_users
    ])
    def test_unreachable_recipients_raise(self, n_users, sigma, k):
        expect = (f"sigma = {sigma!r} cannot reach k = {k} distinct recipients"
                  f" of n_users = {n_users}")
        with pytest.raises(ConfigInvalid, match=re.escape(expect)):
            select_recipients(5, n_users, sigma, k, random.Random(1))

    def test_slow_valid_pick_completes(self):
        # its longest run of draws that add no one stays far below the bound
        chosen = select_recipients(5, 40, 5.0, 39, random.Random(3))
        assert sorted(chosen) == [i for i in range(40) if i != 5]

    def test_locality_mass_within_three_sigma(self):
        # Monte-Carlo oracle: P(|offset| <= 9 | offset != 0) for sigma=3
        # is about 0.9982 (normal CDF), comfortably above 0.995.
        rng = random.Random(0)
        n, sender, hits, draws = 100, 50, 0, 100000
        for _ in range(draws):
            idx = select_recipients(sender, n, 3.0, 1, rng)[0]
            delta = (idx - sender) % n
            if min(delta, n - delta) <= 9:
                hits += 1
        assert hits / draws >= 0.995


class TestPersonalize:
    def test_prefixes_login(self):
        assert personalize("buy pills", "alice@example.org") == (
            "Dear alice,\nbuy pills"
        )

    def test_empty_body(self):
        assert personalize("", "bob@x.y") == "Dear bob,\n"

    def test_missing_at_sign(self):
        # a plain ValueError: only a library caller can pass such an address
        with pytest.raises(ValueError, match=r"^noatsign$") as raised:
            personalize("hi", "noatsign")
        assert not isinstance(raised.value, SpamlabError)


class TestBogusReceived:
    def real_message(self, forged=()):
        world, _rng = build_world(SimConfig(n_users=4, n_mailing_lists=0,
                                            n_spammers=0, send_prob=1.0))
        out = []
        trafficgen._emit(world, out, world.users[0], "hello", [world.users[1].address],
                         [], [], Label.HAM, forged)
        return out[0][0]

    def test_count_zero_is_identity(self):
        rng = random.Random(1)
        state = rng.getstate()
        forged = _forged_received(0, rng)
        assert forged == () and rng.getstate() == state
        assert len(self.real_message(forged).received_headers) == 1

    def test_prepends_before_real_headers(self):
        forged = _forged_received(2, random.Random(1))
        m = self.real_message(forged)
        assert len(m.received_headers) == 3
        assert m.received_headers[:2] == forged
        assert m.received_headers[-1] == self.real_message().received_headers[0]

    def test_deterministic_for_fixed_seed(self):
        a = _forged_received(2, random.Random(9))
        assert a == _forged_received(2, random.Random(9))
        assert all(entry.startswith("from mx") for entry in a)

    def test_matches_rng_methods(self):
        domains = trafficgen._FAKE_DOMAINS
        for seed in range(20):
            rng, want_rng = random.Random(seed), random.Random(seed)
            want = tuple(
                f"from mx{want_rng.randrange(10000)}.{want_rng.choice(domains)}"
                f" by {want_rng.choice(domains)}; t{want_rng.randrange(86400):05d}"
                for _ in range(3)
            )
            assert _forged_received(3, rng) == want
            assert rng.getstate() == want_rng.getstate()


class TestRandbelow:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 21, 257, 10000, 86400, 2**40 + 3])
    def test_matches_rng_methods(self, n):
        """_randbelow(getrandbits, n) is the draw behind rng.choice on n
        items, rng.randrange(n) and rng.randint(a, a + n - 1)."""
        for seed in range(10):
            rng = random.Random(seed)
            got = [_randbelow(rng.getrandbits, n) for _ in range(20)]
            for method in (
                lambda r: r.randrange(n),
                lambda r: r.choice(range(n)),
                lambda r: r.randint(5, 5 + n - 1) - 5,
            ):
                want_rng = random.Random(seed)
                assert got == [method(want_rng) for _ in range(20)]
                assert rng.getstate() == want_rng.getstate()


class TestRandomWords:
    def test_count_zero_is_identity(self):
        assert add_random_words("body", ["x"], 0, random.Random(0)) == "body"

    def test_single_word_dictionary(self):
        got = add_random_words("body", ["a"], 5, random.Random(0))
        assert got == "body\n\na a a a a"

    def test_empty_dictionary_raises(self):
        with pytest.raises(ConfigInvalid, match=r"^random-word injection needs a dictionary$"):
            add_random_words("body", [], 3, random.Random(0))

    def test_deterministic_suffix(self):
        dictionary = [f"w{i}" for i in range(1000)]
        a = add_random_words("b", dictionary, 3, random.Random(4))
        b = add_random_words("b", dictionary, 3, random.Random(4))
        assert a == b != "b"


class TestStep:
    def test_nothing_fires(self):
        config = SimConfig(
            n_users=5, n_mailing_lists=1, n_spammers=1,
            send_prob=0.0, activation_prob=0.0,
        )
        world, rng = build_world(config)
        assert step(world, rng) == []

    def test_personalized_burst_arithmetic(self):
        # 100 targets at 25 per step: exactly 25 messages for 4 steps
        config = SimConfig(
            n_users=120, n_mailing_lists=0, n_spammers=1,
            send_prob=0.0, activation_prob=0.0,
            burst_rate=25, spammer_db_size=100,
        )
        world, rng = build_world(config, personalize_spam=True)
        sp = world.spammers[0]
        sp.current_body = SPAM_CORPUS.bodies[0]
        for expected_step in range(4):
            out = step(world, rng)
            assert len(out) == 25
            assert all(m.step == expected_step for m, _ in out)
            assert all(len(m.recipients) == 1 for m, _ in out)
            assert all(m.to_addrs for m, _ in out)
        assert sp.current_body is None
        assert step(world, rng) == []

    def test_bcc_batched_burst(self):
        # non-personalized: each step's 25 targets share one Bcc message
        config = SimConfig(
            n_users=120, n_mailing_lists=0, n_spammers=1,
            send_prob=0.0, activation_prob=0.0,
            burst_rate=25, spammer_db_size=100,
        )
        world, rng = build_world(config)
        sp = world.spammers[0]
        sp.current_body = SPAM_CORPUS.bodies[0]
        out = step(world, rng)
        assert len(out) == 1
        m, entry = out[0]
        assert len(m.bcc_addrs) == 25
        assert m.to_addrs == ()
        assert entry.recipient_count == 25

    def test_burst_shares_one_body(self):
        config = SimConfig(
            n_users=30, n_mailing_lists=0, n_spammers=1,
            send_prob=0.0, activation_prob=1.0,
            burst_rate=5, spammer_db_size=20,
        )
        world, rng = build_world(config, personalize_spam=True)
        bodies = set()
        for _ in range(4):
            for m, _entry in step(world, rng):
                bodies.add(m.body.split("\n", 1)[1])  # drop the Dear line
        assert len(bodies) == 1

    def test_mailing_list_iterates_subscribers(self):
        config = SimConfig(
            n_users=10, n_mailing_lists=1, n_spammers=0,
            send_prob=1.0,
        )
        world, rng = build_world(config)
        world.users.clear()
        ml = world.mailing_lists[0]
        seen = []
        for _ in range(len(ml.recipients)):
            out = step(world, rng)
            assert len(out) == 1
            m = out[0][0]
            assert m.truth is Label.HAM
            seen.append(m.to_addrs[0])
        assert tuple(seen) == ml.recipients
        assert ml.current_body is None

    def test_mailing_list_sends_one_body_per_iteration(self):
        config = SimConfig(
            n_users=10, n_mailing_lists=1, n_spammers=0, send_prob=1.0,
        )
        world, rng = build_world(config)
        world.users.clear()
        ml = world.mailing_lists[0]
        bodies = set()
        for _ in range(len(ml.recipients)):
            bodies.add(step(world, rng)[0][0].body)
        assert len(bodies) == 1

    def test_truth_follows_sender_kind(self):
        config = SimConfig(
            n_users=20, n_mailing_lists=2, n_spammers=2,
            send_prob=0.3, activation_prob=0.3,
            burst_rate=10, spammer_db_size=10,
        )
        world, rng = build_world(config)
        spam_hosts = {sp.host for sp in world.spammers}
        for _ in range(50):
            for m, _entry in step(world, rng):
                expected = Label.SPAM if m.origin_host in spam_hosts else Label.HAM
                assert m.truth is expected

    def test_one_log_entry_per_message(self):
        config = SimConfig(
            n_users=20, n_mailing_lists=2, n_spammers=2,
            send_prob=0.3, activation_prob=0.2,
            burst_rate=10, spammer_db_size=10,
        )
        world, rng = build_world(config)
        messages = entries = 0
        for _ in range(40):
            out = step(world, rng)
            messages += len(out)
            entries += len([e for _, e in out])
            for m, e in out:
                assert e.recipient_count == len(m.recipients)
                assert e.origin_host == m.origin_host
        assert messages == entries > 0

    def test_fixed_seed_reproduces_stream_bitwise(self):
        config = SimConfig(
            n_users=25, n_mailing_lists=2, n_spammers=2, seed=11,
            send_prob=0.4, activation_prob=0.3,
            burst_rate=10, spammer_db_size=10,
        )
        streams = []
        for _ in range(2):
            world, rng = build_world(config, bogus_headers=True,
                                     random_words=True)
            rendered = []
            for _ in range(30):
                rendered.extend(
                    render_message(m) for m, _ in step(world, rng)
                )
            streams.append("\x00".join(rendered).encode())
        assert streams[0] == streams[1]

    def test_list_and_spammer_share_the_run_rule(self):
        """A list and a spammer with the same recipients, p and size go
        through the same idle -> run -> idle cycles on the same draws."""
        config = SimConfig(n_users=30, n_mailing_lists=1, n_spammers=1, seed=3,
                           send_prob=0.4, activation_prob=0.4, burst_rate=1)
        runs = []
        for kind in ("mailing_lists", "spammers"):
            world, rng = build_world(config)
            world.users.clear()
            sender = getattr(world, kind)[0]
            sender.recipients = world.mailing_lists[0].recipients
            world.mailing_lists = [sender] if kind == "mailing_lists" else []
            world.spammers = [sender] if kind == "spammers" else []
            trace = []
            for _ in range(40):
                sent = [m.recipients for m, _ in step(world, rng)]
                trace.append((sent, sender.current_body is None, rng.getstate()))
            runs.append(trace)
        assert runs[0] == runs[1]
        # idle, then a run through the recipients, idle after its last step
        sent, idle, _ = zip(*runs[0])
        recipients = world.spammers[0].recipients
        start = sent.index([recipients[:1]])
        end = start + len(recipients)
        assert start > 0 and sent[:start] == ([],) * start and all(idle[:start])
        assert list(sent[start:end]) == [[(r,)] for r in recipients]
        assert idle[start:end + 1] == (False,) * (len(recipients) - 1) + (True, True)
        assert sent[end] == []

    def test_personalized_spam_matches_the_reference_draws(self):
        """Server-bulk-style spam (personalized, forged Received: entries,
        random words) is the stream the reference spammer step makes: same
        messages, same log entries, same rng state after."""
        config = SimConfig(
            n_users=40, n_mailing_lists=1, n_spammers=3, seed=5,
            send_prob=0.2, activation_prob=0.3, burst_rate=7,
            spammer_db_size=12,
        )
        corpus = Corpus(
            topic="many", source_path="<memory>",
            bodies=tuple(f"word{i} other{i % 7} more{i % 13}" for i in range(300)),
        )
        runs = []
        for world_step in (step, reference_step):
            rng = random.Random(config.seed)
            world = World(config, [HAM_CORPUS, corpus], SPAM_CORPUS, rng,
                          personalize_spam=True, bogus_headers=True,
                          random_words=True)
            assert len(world.dictionary) > 256  # a draw can be rejected
            stream = [pair for _ in range(40) for pair in world_step(world, rng)]
            runs.append((stream, rng.getstate()))
        (stream, state), (expected, expected_state) = runs
        assert stream == expected and state == expected_state
        spam = [m for m, _ in stream if m.truth is Label.SPAM]
        assert len(spam) > 50
        assert all(len(m.received_headers) >= 2 for m in spam)

    def test_random_words_match_rng_choice(self):
        for n in (1, 2, 3, 257, 1000, 2000):
            dictionary = [f"w{i}" for i in range(n)]
            for seed in range(5):
                got = add_random_words("b", dictionary, 30, random.Random(seed))
                rng = random.Random(seed)
                want = "b\n\n" + " ".join(rng.choice(dictionary) for _ in range(30))
                assert got == want

    def test_stream_digest_is_pinned(self):
        """The stream of two seeded worlds, one with personalized spam
        carrying forged headers and random words and one with Bcc batches
        of up to 50, hashes to a fixed value: any change in the order of
        the draws or in how a message or log line is built shows here."""
        ham = [
            Corpus(topic=t, source_path="<memory>", bodies=tuple(
                f"{t} word{i} other{i % 7}\n\nmore{i % 13} text"
                for i in range(40)))
            for t in ("cooking", "sailing")
        ]
        spam = Corpus(topic="spam", source_path="<memory>", bodies=tuple(
            f"offer{i} click here\n\nclaim prize{i % 5}" for i in range(9)))
        shapes = [
            (dict(n_users=30, n_mailing_lists=2, n_spammers=3, burst_rate=7,
                  spammer_db_size=15),
             dict(personalize_spam=True, bogus_headers=True, random_words=True)),
            (dict(n_users=130, n_mailing_lists=2, n_spammers=2, burst_rate=60,
                  spammer_db_size=120), {}),
        ]
        digest = hashlib.sha256()
        for shape, spam_options in shapes:
            config = SimConfig(sigma=4.0, seed=11, send_prob=0.2,
                               activation_prob=0.2, **shape)
            rng = random.Random(config.seed)
            world = World(config, ham, spam, rng, **spam_options)
            for _ in range(50):
                for m, entry in step(world, rng):
                    digest.update(render_message(m).encode())
                    digest.update(entry.as_line().encode() + b"\n")
        assert digest.hexdigest() == (
            "c44143b86c39e6b86a0305f4e0a64a6cf1b443234a7bec24ccbc97bac01bc985"
        )

    def test_message_ids_unique(self):
        config = SimConfig(
            n_users=25, n_mailing_lists=2, n_spammers=2,
            send_prob=0.5, activation_prob=0.3,
            burst_rate=10, spammer_db_size=10,
        )
        world, rng = build_world(config)
        ids = []
        for _ in range(30):
            ids.extend(m.message_id for m, _ in step(world, rng))
        assert len(ids) == len(set(ids))

    def test_corpora_sharing_a_topic_are_all_sent(self):
        """A sender draws a corpus, not a topic name: two corpora named
        alike both reach the stream."""
        config = SimConfig(
            n_users=20, n_mailing_lists=1, n_spammers=0, send_prob=0.5,
        )
        corpora = [
            Corpus("news", ("first corpus body",), "a"),
            Corpus("news", ("second corpus body",), "b"),
        ]
        rng = random.Random(config.seed)
        world = World(config, corpora, None, rng)
        bodies = set()
        for _ in range(50):
            bodies.update(m.body for m, _ in step(world, rng))
        assert bodies == {"first corpus body", "second corpus body"}


class TestConnectionLog:
    def test_tab_separated_lines(self):
        entries = [
            ConnectionLogEntry(0, "h0", "a@b.c", 2),
            ConnectionLogEntry(1, "h1", "d@e.f", 1),
        ]
        lines = [entry.as_line() for entry in entries]
        assert lines == ["0\th0\ta@b.c\t2", "1\th1\td@e.f\t1"]


class TestSimConfigFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# comment\n"
            "n_users = 40\n"
            "n_mailing_lists = 1\n"
            "n_spammers = 2\n"
            "sigma = 4.5\n"
            "seed = 7\n"
            "steps = 100\n"
            "target_spam_fraction = 0.3\n"
            "recipients_mean = 1.1\n"
        )
        config = load_sim_config(path)
        assert config.n_users == 40
        assert config.sigma == 4.5
        assert config.target_spam_fraction == 0.3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("n_userz = 40\n")
        with pytest.raises(ConfigInvalid):
            load_sim_config(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigInvalid, match=r"^sigma = 0\.0 must be > 0$"):
            SimConfig(sigma=0.0)
        with pytest.raises(ConfigInvalid, match=r"send_prob = 7\.0 must be in \[0, 1\]"):
            SimConfig(n_users=10, n_mailing_lists=0, n_spammers=1, send_prob=7.0,
                      activation_prob=-3.0)
        with pytest.raises(ConfigInvalid,
                           match=r"activation_prob = -3\.0 must be in \[0, 1\]"):
            SimConfig(activation_prob=-3.0)
        with pytest.raises(ConfigInvalid, match=r"n_users = 1 must be >= 2"):
            SimConfig(n_users=1)
        with pytest.raises(ConfigInvalid,
                           match=r"target_spam_fraction = 1\.5 must be in \[0, 1\]"):
            SimConfig(target_spam_fraction=1.5)
        for name in ("n_mailing_lists", "n_spammers", "spammer_db_size"):
            with pytest.raises(ConfigInvalid, match=f"{name} = -5 must be >= 0"):
                SimConfig(**{name: -5})
        with pytest.raises(ConfigInvalid, match=r"steps = -5 must be >= 1"):
            SimConfig(steps=-5)

    def test_every_field_but_seed_has_a_range(self):
        names = {f.name for f in dataclasses.fields(SimConfig)}
        assert set(SimConfig.RANGES) == names - {"seed"}

    def test_fields_cannot_be_assigned(self):
        config = SimConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.send_prob = 7.0
        assert replace(config, send_prob=0.5).send_prob == 0.5
        with pytest.raises(ConfigInvalid, match="send_prob = 7.0 must be"):
            replace(config, send_prob=7.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "sigma", "target_spam_fraction", "recipients_mean", "send_prob",
        "activation_prob",
    ])
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ConfigInvalid, match=f"^{name} = {value!r} must be finite$"):
            SimConfig(**{name: value})

    def test_huge_sigma_rejected(self):
        # normalvariate(0, 1e308) overflows to inf, which no index rounds to
        with pytest.raises(ConfigInvalid,
                           match=r"sigma = 1e\+308 must be in \[0, 1e\+12\]"):
            SimConfig(n_users=40, sigma=1e308)

    def test_huge_recipients_mean_rejected(self):
        # 1 - 1/1e17 rounds to 1, so the geometric draw would divide by 0
        with pytest.raises(ConfigInvalid,
                           match=r"recipients_mean = 1e\+17 must be in \[0, 1e\+12\]"):
            SimConfig(n_users=20, steps=10, recipients_mean=1e17)

    def test_scales_at_the_bound_run(self):
        config = SimConfig(
            n_users=20, n_mailing_lists=0, n_spammers=1, steps=10,
            sigma=SIM_SCALE_MAX, recipients_mean=SIM_SCALE_MAX,
            target_spam_fraction=0.2,
        )
        world, rng = build_world(config)
        ham = [m for _ in range(20) for m, _ in step(world, rng)
               if m.truth is Label.HAM]
        assert ham
        assert all(len(m.recipients) == config.n_users - 1 for m in ham)
        calibrated = calibrate_spam_fraction(config)
        assert 0 < calibrated.activation_prob <= 1.0


pilot_configs = st.builds(
    SimConfig,
    n_users=st.integers(2, 30),
    n_mailing_lists=st.integers(0, 3),
    n_spammers=st.integers(0, 4),
    recipients_mean=st.sampled_from([0.5, 1.0]) | st.floats(1.0, 8.0),
    send_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    activation_prob=st.floats(0.001, 1.0),
    burst_rate=st.integers(1, 30),
    spammer_db_size=st.integers(0, 40),
)


def parse(config, seed, steps, chunk):
    """A pilot seed's parse, made chunk draws at a time."""
    with mock.patch.object(trafficgen, "_PILOT_CHUNK", chunk):
        return trafficgen._PilotDraws(config, seed, steps)


class TestPilot:
    """The calibration pilot jumps through each step's users on one parse
    of the seed's draws, made up front; it must replay reference_pilot
    exactly. Multiplier 0 keeps every spammer idle, so its pilot reads the
    most draws: a parse that stops short of it raises IndexError."""

    def check(self, config, seed, steps, turns, chunk):
        draws = parse(config, seed, steps, chunk)
        fresh = trafficgen._PilotDraws(config, seed, steps)
        for multiplier in [*bisection_multipliers(config, turns), 0.0]:
            want = reference_pilot(config, multiplier, steps, seed)
            assert trafficgen._pilot(draws, multiplier) == want
            assert trafficgen._pilot(fresh, multiplier) == want

    @settings(max_examples=150, deadline=None)
    @given(
        config=pilot_configs,
        seed=st.integers(0, 2**32),
        steps=st.integers(0, 50),
        turns=st.lists(st.booleans(), max_size=6),
        chunk=st.sampled_from([1, 2, 3, 5, 64, 4096]),
    )
    def test_replays_the_per_draw_pilot(self, config, seed, steps, turns, chunk):
        self.check(config, seed, steps, turns, chunk)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 4096])
    @pytest.mark.parametrize(
        "shape",
        [
            dict(recipients_mean=1.0),  # no geometric draw
            dict(recipients_mean=0.5, send_prob=0.6),
            dict(send_prob=0.0),
            dict(send_prob=1.0),  # every user slot is two draws wide
            dict(send_prob=1.0, recipients_mean=1.0),
            dict(n_users=2, n_mailing_lists=0),
            dict(spammer_db_size=0),
            dict(recipients_mean=50.0, send_prob=0.9),  # counts clamp at n_users - 1
        ],
        ids=["mean-1", "mean-below-1", "send-0", "send-1", "send-1-mean-1",
             "two-users-no-lists", "db-0", "clamped"],
    )
    def test_edge_shapes(self, shape, chunk):
        config = SimConfig(**{"n_users": 12, "n_mailing_lists": 2, "n_spammers": 3,
                              "send_prob": 0.3, "activation_prob": 0.2,
                              "burst_rate": 4, "spammer_db_size": 9, **shape})
        for seed in range(4):
            self.check(config, seed, 40, [True, False, False, True], chunk)

    def test_send_slot_on_a_chunk_boundary(self):
        """A send slot that starts on the last draw of a chunk has its
        geometric draw in the next one: the parse skips that draw there,
        though it is below send_prob at this seed."""
        config = SimConfig(n_users=10, n_mailing_lists=1, n_spammers=2,
                           send_prob=0.3, recipients_mean=2.0, activation_prob=0.3)
        rng = random.Random(2)
        first_send = next(i for i in range(100) if rng.random() < config.send_prob)
        geometric = rng.random()
        assert geometric < config.send_prob
        draws = parse(config, 2, 60, first_send + 1)
        assert draws.send_at[0] == first_send and draws.send_at[1] > first_send + 1
        assert draws.ham[1] == draws.recipients([geometric])[0]
        for multiplier in (1.0, 0.5, 3.0, 0.0):
            want = reference_pilot(config, multiplier, 60, 2)
            assert trafficgen._pilot(draws, multiplier) == want


class TestCalibration:
    @pytest.mark.parametrize(
        "shape, activation_prob",
        [
            (dict(seed=2004), 0.0234375),
            (dict(seed=2005), 0.0234375),
            (dict(seed=2006, n_users=60, n_mailing_lists=1, n_spammers=3,
                  spammer_db_size=20, burst_rate=20), 0.09375),
            (dict(seed=2004, recipients_mean=1.0), 0.01953125),
            (dict(seed=2004, steps=200), 0.021240234375),
        ],
        ids=["user-bayes", "server-bulk", "external-wrapper", "mean-1", "steps-200"],
    )
    def test_benchmark_shapes_are_pinned(self, shape, activation_prob):
        # the last two are not benchmark workloads: one-draw user slots, and
        # a pilot shorter than 500 steps
        config = SimConfig(**{
            "n_users": 500, "n_mailing_lists": 5, "n_spammers": 10,
            "sigma": 10.0, "steps": 500, "target_spam_fraction": 0.4,
            "recipients_mean": 1.3, "send_prob": 0.1, "activation_prob": 0.05,
            "burst_rate": 50, "spammer_db_size": 200, **shape,
        })
        assert calibrate_spam_fraction(config).activation_prob == activation_prob

    def test_zero_target_without_spammers_is_identity(self):
        config = SimConfig(n_spammers=0, target_spam_fraction=0.0)
        assert calibrate_spam_fraction(config) == config

    def test_unreachable_target_fails(self):
        config = SimConfig(
            n_users=1000, n_mailing_lists=0, n_spammers=1,
            send_prob=0.5, target_spam_fraction=0.99,
        )
        with pytest.raises(
            ConfigInvalid, match=r"^target 0\.990 unreachable: ceiling at full activation is "
        ):
            calibrate_spam_fraction(replace(config, steps=300))

    def test_reachable_target_calibrates(self):
        config = SimConfig(
            n_users=60, n_mailing_lists=1, n_spammers=3, seed=5,
            send_prob=0.1, activation_prob=0.05,
            burst_rate=25, spammer_db_size=25,
            target_spam_fraction=0.4,
        )
        calibrated = calibrate_spam_fraction(replace(config, steps=1500))
        world, rng = build_world(calibrated)
        messages = []
        for _ in range(600):
            messages.extend(m for m, _ in step(world, rng))
        assert abs(measure_spam_fraction(messages) - 0.4) <= 0.04

    @pytest.mark.parametrize(
        "shape, personalized",
        [
            (dict(n_mailing_lists=0, n_spammers=8, burst_rate=10,
                  spammer_db_size=10), False),
            (dict(n_mailing_lists=2, n_spammers=6, burst_rate=5,
                  spammer_db_size=12), False),
            (dict(n_mailing_lists=2, n_spammers=6, burst_rate=5,
                  spammer_db_size=12), True),
            (dict(n_mailing_lists=1, n_spammers=10, burst_rate=30,
                  spammer_db_size=60, activation_prob=0.03), False),
        ],
        ids=["no-lists", "lists-bcc", "lists-personalized", "db-beyond-users"],
    )
    def test_pilot_matches_world(self, shape, personalized):
        # the pilot copies the sender state machines of step(); a real run
        # at the same activation_prob must land on the pilot's spam share
        config = SimConfig(
            **{"n_users": 40, "sigma": 5.0, "send_prob": 0.1,
               "activation_prob": 0.08, **shape}
        )
        world, rng = build_world(
            config, random.Random(1), personalize_spam=personalized
        )
        stream = [m for _ in range(2500) for m, _ in step(world, rng)]
        pilot = trafficgen._pilot(trafficgen._PilotDraws(config, 1, 10_000), 1.0)
        assert measure_spam_fraction(stream) == pytest.approx(pilot, abs=0.02)

    def test_each_pilot_runs_config_steps(self, monkeypatch):
        config = SimConfig(n_users=30, n_mailing_lists=1, n_spammers=2, seed=4,
                           steps=37, burst_rate=10, spammer_db_size=10)
        calls, pilot = [], trafficgen._pilot

        def spy(draws, multiplier):
            calls.append((draws.steps, multiplier, pilot(draws, multiplier)))
            return calls[-1][2]

        monkeypatch.setattr(trafficgen, "_pilot", spy)
        calibrate_spam_fraction(config)
        assert calls and {steps for steps, _, _ in calls} == {37}
        _, multiplier, fraction = calls[0]
        pilot_seed = config.seed * 1_000_003 + 17
        assert fraction == reference_pilot(config, multiplier, 37, pilot_seed)

    def test_measure_spam_fraction_weighs_recipients(self):
        world, rng = build_world(
            SimConfig(n_users=10, n_mailing_lists=0, n_spammers=0)
        )
        ham = []
        while len(ham) < 3:
            ham.extend(m for m, _ in step(world, rng))
        assert measure_spam_fraction(ham) == 0.0
