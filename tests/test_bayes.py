import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_message, synth_bodies
from spamlab import bayes
from spamlab.bayes import (
    BayesModel,
    Text,
    TokenMemo,
    UserCounts,
    bayes_classify,
    combine_spam_probability,
    interesting_words,
    posterior_spam,
    train_bayes,
    train_messages,
    word_spaminess,
)
from spamlab.corpus import Label, Verdict, tokenize
from spamlab.errors import ConfigInvalid
from spamlab.evalcli import load_scenario, run_scenario
from spamlab.filters import (
    FilterBinding,
    Level,
    build_filter,
    classify,
    emit_training_sets,
    train,
)
from spamlab.trafficgen import Corpus, SimConfig, World, step


def model_from_counts(spam, ham, n_spam, n_ham, **kw):
    return BayesModel(
        spam_count=Counter(spam),
        ham_count=Counter(ham),
        n_spam_msgs=n_spam,
        n_ham_msgs=n_ham,
        **kw,
    )


def brute_posterior(probs, prior):
    """Independent oracle: direct product evaluation of the Bayes rule."""
    num = prior
    den_ham = 1.0 - prior
    for p in probs:
        num *= p
        den_ham *= 1.0 - p
    return num / (num + den_ham)


class TestWordSpaminess:
    def test_equal_rates_are_neutral(self):
        model = model_from_counts({"w": 3}, {"w": 3}, 10, 10)
        assert word_spaminess(model, "w") == 0.5

    def test_direct_formula(self):
        # S(w)/N_S = 0.2, H(w)/N_H = 0.05 -> 0.2 / 0.25 = 0.8
        model = model_from_counts({"w": 2}, {"w": 1}, 10, 20)
        assert word_spaminess(model, "w") == pytest.approx(0.8)

    def test_zero_ham_clamps_high(self):
        model = model_from_counts({"w": 5}, {}, 10, 10)
        assert word_spaminess(model, "w") == 0.99

    def test_zero_spam_clamps_low(self):
        model = model_from_counts({}, {"w": 5}, 10, 10)
        assert word_spaminess(model, "w") == 0.01

    def test_unseen_word_is_neutral(self):
        model = model_from_counts({}, {}, 1, 1)
        assert word_spaminess(model, "ghost") == 0.5

    def test_word_at_count_zero_is_neutral_and_not_stored(self):
        """A Counter can hold a word at count 0; the model did not count
        it, so it is neutral, never stored, and nothing divides 0 by 0."""
        model = model_from_counts({"w": 0}, {"w": 0}, 10, 10)
        assert word_spaminess(model, "w") == 0.5
        assert "w" not in model.spaminess
        # a token has 2-40 characters, so the message's word is "ww"
        model = model_from_counts({"ww": 0}, {"ww": 0}, 10, 10)
        verdict = bayes_classify(model, make_message(subject="", body="ww"))
        assert verdict == Verdict(Label.HAM, 0.5)
        assert "ww" not in model.spaminess

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_monotone_in_counts(self, s, h, extra):
        base = model_from_counts({"w": s}, {"w": h}, 100, 100)
        more_spam = model_from_counts({"w": s + extra}, {"w": h}, 100, 100)
        more_ham = model_from_counts({"w": s}, {"w": h + extra}, 100, 100)
        p = word_spaminess(base, "w")
        assert 0.01 <= p <= 0.99
        assert word_spaminess(more_spam, "w") >= p
        assert word_spaminess(more_ham, "w") <= p


class TestInterestingWords:
    def test_empty_message(self):
        model = model_from_counts({}, {}, 1, 1)
        m = make_message(body="", subject="")
        assert interesting_words(model, m) == []

    def test_most_polarized_win(self):
        # spaminess: strong ~0.99, meh = 0.5, mild ~0.02
        model = model_from_counts(
            {"strong": 50, "meh": 5}, {"meh": 5, "mild": 49}, 50, 50
        )
        model.n_interesting = 2
        m = make_message(body="strong meh mild", subject="")
        assert set(interesting_words(model, m)) == {"strong", "mild"}

    def test_tie_breaks_lexicographically(self):
        model = model_from_counts({"bb": 9, "aa": 9}, {"bb": 1, "aa": 1}, 10, 10)
        model.n_interesting = 1
        m = make_message(body="bb aa", subject="")
        assert interesting_words(model, m) == ["aa"]

    def test_deduplicates_tokens(self):
        model = model_from_counts({"spammy": 9}, {}, 10, 10)
        m = make_message(body="spammy spammy spammy", subject="")
        assert interesting_words(model, m) == ["spammy"]

    @pytest.mark.parametrize("n", [1, 3, 6, 40])
    def test_matches_the_sort_key_ranking(self, n):
        """The ranking is the one a sort on (-|p - 0.5|, word) gives, also
        where the cut falls inside a run of words clamped to 0.01 or
        0.99."""
        stream = seeded_stream(3, 200)
        model = train_messages(
            [m for m in stream if m.truth is Label.HAM],
            [m for m in stream if m.truth is Label.SPAM],
            n=n,
        )
        cut_in_a_tie = 0
        for m in seeded_stream(103, 200, unseen=True):
            plain = replace(model)
            words = set(tokenize(m.subject)) | set(tokenize(m.body))
            ranked = sorted(
                words, key=lambda w: (-abs(word_spaminess(plain, w) - 0.5), w)
            )
            assert interesting_words(model, m) == ranked[:n]
            if len(ranked) > n > 0:
                last = word_spaminess(plain, ranked[n - 1])
                cut_in_a_tie += last in (0.01, 0.99) and (
                    word_spaminess(plain, ranked[n]) == last
                )
        assert cut_in_a_tie > 0 or n == 40


class TestPosterior:
    def test_single_word(self):
        # 0.5 * 0.8 / (0.5 * 0.8 + 0.5 * 0.2) = 0.8
        assert combine_spam_probability([0.8], 0.5) == pytest.approx(0.8)

    def test_neutral_words_stay_at_prior(self):
        assert combine_spam_probability([0.5, 0.5, 0.5], 0.5) == pytest.approx(0.5)

    def test_two_strong_words(self):
        # 0.81 / (0.81 + 0.01) = 0.987804878...
        got = combine_spam_probability([0.9, 0.9], 0.5)
        assert got == pytest.approx(0.81 / 0.82, abs=1e-12)

    def test_empty_returns_prior(self):
        assert combine_spam_probability([], 0.3) == 0.3

    @given(
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=20),
        st.sampled_from([0.3, 0.5, 0.7]),
    )
    def test_matches_brute_force(self, probs, prior):
        got = combine_spam_probability(probs, prior)
        assert got == pytest.approx(brute_posterior(probs, prior), abs=1e-9)

    @given(
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=20),
        st.sampled_from([0.3, 0.5, 0.7]),
    )
    def test_two_class_normalization(self, probs, prior):
        p_spam = combine_spam_probability(probs, prior)
        p_ham = combine_spam_probability([1.0 - p for p in probs], 1.0 - prior)
        assert p_spam + p_ham == pytest.approx(1.0, abs=1e-12)

    @given(st.permutations(list(range(8))))
    def test_order_invariance(self, perm):
        probs = [0.03, 0.2, 0.4, 0.5, 0.6, 0.77, 0.9, 0.97]
        shuffled = [probs[i] for i in perm]
        assert combine_spam_probability(shuffled, 0.5) == pytest.approx(
            combine_spam_probability(probs, 0.5), abs=1e-12
        )


class TestClassify:
    def spamish_model(self):
        return model_from_counts({"offer": 49}, {"meeting": 49}, 50, 50)

    def test_above_threshold_is_spam(self):
        model = self.spamish_model()
        m = make_message(body="offer offer", subject="offer")
        verdict = bayes_classify(model, m)
        assert verdict.label is Label.SPAM
        assert verdict.score > model.threshold

    def test_exactly_threshold_is_ham(self):
        # a single neutral-scored word with threshold set at its posterior
        model = model_from_counts({"even": 1}, {"even": 1}, 2, 2)
        m = make_message(body="even", subject="")
        assert posterior_spam(model, ["even"]) == pytest.approx(0.5)
        model.threshold = 0.5
        assert bayes_classify(model, m).label is Label.HAM

    def test_zero_tokens_is_ham_with_prior_score(self):
        model = self.spamish_model()
        model.prior_spam = 0.5
        m = make_message(body="", subject="")
        verdict = bayes_classify(model, m)
        assert verdict.label is Label.HAM
        assert verdict.score == 0.5

    def test_duplicated_token_does_not_change_verdict(self):
        model = self.spamish_model()
        once = make_message(body="offer meeting", subject="")
        twice = make_message(body="offer offer meeting", subject="")
        assert bayes_classify(model, once) == bayes_classify(model, twice)


class TestTrain:
    def write_mboxes(self, tmp_path, ham_msgs, spam_msgs):
        stream = ham_msgs + spam_msgs
        ham_paths, spam_paths = emit_training_sets(stream, tmp_path)
        return ham_paths[0], spam_paths[0]

    def test_counts_with_multiplicity(self, tmp_path):
        ham = [make_message(body="tea tea time", subject="", truth=Label.HAM)]
        spam = [make_message(body="viagra viagra", subject="", truth=Label.SPAM)]
        ham_path, spam_path = self.write_mboxes(tmp_path, ham, spam)
        model = train_bayes(ham_path, spam_path)
        assert model.spam_count["viagra"] == 2
        assert model.ham_count["tea"] == 2
        assert model.n_spam_msgs == 1
        assert model.n_ham_msgs == 1
        assert model.prior_spam == 0.5

    def test_subject_tokens_count(self, tmp_path):
        ham = [make_message(body="x", subject="weekly report", truth=Label.HAM)]
        spam = [make_message(body="y", subject="", truth=Label.SPAM)]
        ham_path, spam_path = self.write_mboxes(tmp_path, ham, spam)
        model = train_bayes(ham_path, spam_path)
        assert model.ham_count["weekly"] == 1

    def test_empty_ham_raises(self, tmp_path):
        spam = [make_message(body="buy", truth=Label.SPAM)]
        ham_path, spam_path = self.write_mboxes(tmp_path, [], spam)
        with pytest.raises(ConfigInvalid, match=r"^ham=0 spam=1$"):
            train_bayes(ham_path, spam_path)

    def test_disjoint_vocabularies_separate(self, tmp_path, corpus_tools):
        spam_vocab = [f"offer{i:03d}" for i in range(100)]
        ham_vocab = [f"note{i:03d}" for i in range(100)]
        ham = [
            make_message(body=b, subject="", truth=Label.HAM)
            for b in synth_bodies(ham_vocab, 50, 12, seed=1)
        ]
        spam = [
            make_message(body=b, subject="", truth=Label.SPAM)
            for b in synth_bodies(spam_vocab, 50, 12, seed=2)
        ]
        ham_path, spam_path = self.write_mboxes(tmp_path, ham, spam)
        model = train_bayes(ham_path, spam_path)
        m = make_message(body="offer000 offer001 offer002", subject="")
        assert posterior_spam(model, interesting_words(model, m)) >= 0.99


def seeded_stream(seed, n, unseen=False):
    """Labelled messages to four mailboxes. Words ham* occur only in ham
    and spam* only in spam, so they clamp to 0.01 and 0.99; both classes
    share common*. With unseen, every third message carries a word no
    training message has. Every tenth message has no tokens."""
    rng = random.Random(seed)
    addrs = [f"u{i}@example.org" for i in range(4)]
    vocab = {
        Label.HAM: [f"ham{i:02d}" for i in range(25)],
        Label.SPAM: [f"spam{i:02d}" for i in range(25)],
    }
    common = [f"common{i}" for i in range(10)]
    stream = []
    for i in range(n):
        truth = Label.SPAM if rng.random() < 0.4 else Label.HAM
        words = vocab[truth] + common
        body = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
        subject = rng.choice(["", "Re: " + rng.choice(common), body[:20]])
        if unseen and i % 3 == 0:
            body += f" unseen{i}"
        if i % 10 == 9:
            subject, body = "", "a ! b ?"  # no token of two letters or more
        to = rng.sample(addrs, rng.randint(1, 2))
        rest = [a for a in addrs if a not in to]
        stream.append(make_message(
            body=body, subject=subject, truth=truth, to=to,
            bcc=rng.sample(rest, rng.randint(0, len(rest))),
        ))
    return stream


class TestTokenMemo:
    """The memo-and-table path gives exactly what the plain path gives:
    plain tokenize, and a fresh spaminess table for every message."""

    def test_memo_tokenizes_once_and_interns(self):
        """The first lookup stores nothing; the second stores the tokens,
        interned; later lookups return the stored tuple."""
        text = "Buy NOW buy"
        memo = TokenMemo()
        first = memo(text)
        assert first == tuple(tokenize(text)) and len(memo) == 0
        assert memo(text) == first and len(memo) == 1
        stored = memo[text]
        # tokenize makes new strings, which sys.intern maps to the stored
        # ones only if those were interned
        assert all(w is sys.intern(t) for w, t in zip(stored, tokenize(text)))
        assert stored[0] is stored[2]
        assert memo(text) is stored and len(memo) == 1
        assert memo("") == ()

    def test_hash_collision_stores_early_never_wrong(self):
        class Colliding(str):
            def __hash__(self):
                return 7

        memo = TokenMemo()
        a, b = Colliding("alpha words"), Colliding("beta words")
        assert memo(a) == ("alpha", "words") and len(memo) == 0
        assert memo(b) == ("beta", "words") and list(memo) == [b]
        assert memo(a) == ("alpha", "words") and memo(b) == ("beta", "words")

    def test_general_model_and_verdicts_match_plain_path(self):
        train_stream = seeded_stream(1, 300)
        ham = [m for m in train_stream if m.truth is Label.HAM]
        spam = [m for m in train_stream if m.truth is Label.SPAM]
        memo = TokenMemo()
        fast = train_messages(ham, spam, tokens=memo)
        plain = train_messages(ham, spam)
        for attr in ("spam_count", "ham_count", "n_spam_msgs", "n_ham_msgs",
                     "prior_spam"):
            assert getattr(fast, attr) == getattr(plain, attr)

        eval_stream = seeded_stream(101, 300, unseen=True)
        verdicts = []
        for m in eval_stream:
            verdict = bayes_classify(fast, m, memo)
            assert verdict == bayes_classify(replace(plain), m)
            verdicts.append(verdict)
        assert {v.label for v in verdicts} == {Label.HAM, Label.SPAM}
        assert verdicts[9] == Verdict(Label.HAM, plain.prior_spam)  # no tokens
        table = fast.spaminess
        assert "unseen0" not in table and word_spaminess(fast, "unseen0") == 0.5
        assert table["spam00"] == 0.99 and table["ham00"] == 0.01
        assert 0.01 < table["common0"] < 0.99
        for word, p in table.items():
            assert p == word_spaminess(replace(plain), word)
            assert plain.spam_count[word] > 0 or plain.ham_count[word] > 0

    def test_per_user_models_and_verdicts_match_plain_path(self, tmp_path):
        train_stream = seeded_stream(2, 200)
        binding = FilterBinding(
            name="bayes", level=Level.USER, builtin="bayes",
            options={"min_user_messages": "20"},
        )
        f = build_filter(binding)
        ham_paths, spam_paths = emit_training_sets(train_stream, tmp_path)
        train(f, ham_paths[0], spam_paths[0], train_stream)
        general = train_bayes(ham_paths[0], spam_paths[0], f.n, f.threshold)
        assert f.model == general
        expected = {}
        for addr in {a for m in train_stream for a in m.recipients}:
            mine = [m for m in train_stream if addr in m.recipients]
            ham = [m for m in mine if m.truth is Label.HAM]
            spam = [m for m in mine if m.truth is Label.SPAM]
            if min(len(ham), len(spam)) >= 20:
                expected[addr] = train_messages(ham, spam, f.n, f.threshold)
        assert f.user_models == expected and len(expected) >= 2
        server = build_filter(replace(binding, level=Level.SERVER))
        train(server, ham_paths[0], spam_paths[0], train_stream)
        assert server.model == general and server.user_models == {}

        for m in seeded_stream(102, 300, unseen=True):
            model = expected.get(m.recipients[0], general)
            assert classify(f, m) == bayes_classify(replace(model), m)
        # each table holds only words its model counted
        for model in (f.model, *f.user_models.values()):
            assert all(model.spam_count[w] > 0 or model.ham_count[w] > 0
                       for w in model.spaminess)


class TestTokenizeOncePerRun:
    def test_each_text_tokenized_once(
        self, tmp_path, scenario_builder, monkeypatch
    ):
        """A text is tokenized at its first and second lookup only, and
        the memo ends up holding exactly the texts looked up twice or
        more."""
        path = scenario_builder(tmp_path, scenario_overrides={"filters": "bayes U"})
        tokenized, looked_up, memos = Counter(), Counter(), []

        def counting_tokenize(text):
            tokenized[text] += 1
            return tokenize(text)

        class CountingMemo(TokenMemo):
            def __init__(self):
                super().__init__()
                memos.append(self)

            def __call__(self, text):
                looked_up[text] += 1
                return self[text]

        monkeypatch.setattr(bayes, "tokenize", counting_tokenize)
        monkeypatch.setattr(bayes, "TokenMemo", CountingMemo)
        results = run_scenario(load_scenario(path), tmp_path / "out")
        assert results[0].counts.n_spam and results[0].counts.n_ham
        assert len(memos) == 1 and max(looked_up.values()) > 2
        assert tokenized == Counter({t: min(n, 2) for t, n in looked_up.items()})
        assert set(memos[0]) == {t for t, n in looked_up.items() if n >= 2}

    def test_memo_gives_the_results_of_plain_tokenize(
        self, tmp_path, scenario_builder, monkeypatch
    ):
        """Server-level Bayes on personalized random-word spam, where most
        texts are seen once: the memo changes no result."""
        path = scenario_builder(tmp_path, scenario_overrides={
            "filters": "bayes S", "level": "S", "personalized": "true",
            "random_words": "true",
        })
        run_scenario(load_scenario(path), tmp_path / "memo")
        monkeypatch.setattr(bayes, "TokenMemo", lambda: tokenize)
        run_scenario(load_scenario(path), tmp_path / "plain")
        memo_csv = (tmp_path / "memo" / "results.csv").read_bytes()
        assert memo_csv == (tmp_path / "plain" / "results.csv").read_bytes()
        assert b"bayes" in memo_csv

    def test_filters_do_not_share_a_memo(self):
        binding = FilterBinding(name="bayes", level=Level.USER, builtin="bayes")
        a, b = build_filter(binding), build_filter(binding)
        assert a.tokens is not b.tokens
        a.tokens("some words")
        a.tokens("some words")
        assert len(a.tokens) == 1 and len(b.tokens) == 0


def user_filter(min_user_messages=0):
    return build_filter(FilterBinding(
        name="bayes", level=Level.USER, builtin="bayes",
        options={"min_user_messages": str(min_user_messages)},
    ))


class TestUserCounts:
    """Per-user models count a text that several mailboxes got once, and
    read every count exactly as train_messages counts that mailbox's
    mail."""

    def check(self, stream, min_user_messages=0):
        """Every per-user model of stream equals train_messages on the mail
        delivered to its mailbox, once per delivery, and classifies as it."""
        f = user_filter(min_user_messages)
        f.train_user_models(stream)
        assert f.user_models
        for addr, model in f.user_models.items():
            mine = [m for m in stream for a in m.recipients if a == addr]
            expected = train_messages(
                [m for m in mine if m.truth is Label.HAM],
                [m for m in mine if m.truth is Label.SPAM],
                f.n, f.threshold,
            )
            for side in ("spam_count", "ham_count"):
                counts, plain = getattr(model, side), getattr(expected, side)
                assert isinstance(counts, UserCounts)
                assert counts == plain and plain == counts
                assert len(counts) == len(plain) and set(counts) == set(plain)
                words = set(expected.spam_count) | set(expected.ham_count)
                for word in sorted(words) + ["uncounted"]:
                    assert counts[word] == plain[word]
                    assert (word in counts) == (word in plain)
                    assert counts.get(word) == plain.get(word)
            for attr in ("n_spam_msgs", "n_ham_msgs", "prior_spam"):
                assert getattr(model, attr) == getattr(expected, attr)
            for m in stream:
                assert bayes_classify(model, m) == bayes_classify(replace(expected), m)
        return f

    def test_bcc_batches_to_many_mailboxes(self):
        rng = random.Random(7)
        addrs = [f"u{i}@example.org" for i in range(15)]
        stream = []
        for i in range(120):
            truth = Label.SPAM if i % 3 == 0 else Label.HAM
            body = " ".join(rng.choice(["offer", "pills", "notes", "lunch",
                                        f"w{i % 17}", f"v{i % 5}"])
                            for _ in range(8))
            if truth is Label.SPAM:
                stream.append(make_message(
                    body=body, subject=f"deal {i % 4}", truth=truth, to=(),
                    bcc=rng.sample(addrs, 12),
                ))
            else:
                stream.append(make_message(
                    body=body, truth=truth, to=rng.sample(addrs, 2),
                    cc=rng.sample(addrs, rng.randint(0, 3)),
                ))
        f = self.check(stream)
        assert len(f.user_models) == 15

    def test_personalized_random_word_spam_is_counted_per_mailbox(self):
        ham = [Corpus(topic, tuple(
            f"{topic} notes {i} agenda item{i % 7}" for i in range(12)
        ), "<memory>") for topic in ("cooking", "sailing")]
        spam = Corpus("spam", tuple(
            f"offer{i} click here\n\nclaim prize{i % 5}" for i in range(9)
        ), "<memory>")
        config = SimConfig(n_users=30, n_mailing_lists=2, n_spammers=3,
                           burst_rate=7, spammer_db_size=15, sigma=4.0,
                           seed=11, send_prob=0.2, activation_prob=0.2)
        rng = random.Random(config.seed)
        world = World(config, ham, spam, rng, personalize_spam=True,
                      random_words=True)
        stream = [m for _ in range(40) for m, _ in step(world, rng)]
        spam_texts = Counter(Text(m.subject, m.body) for m in stream
                             if m.truth is Label.SPAM for _ in m.recipients)
        assert len(spam_texts) > 50 and max(spam_texts.values()) == 1
        f = self.check(stream, min_user_messages=2)
        for model in f.user_models.values():
            assert model.spam_count.own and not model.spam_count.times

    def test_a_text_as_ham_to_one_mailbox_and_spam_to_another(self):
        a, b, c = "a@example.org", "b@example.org", "c@example.org"
        stream = [
            make_message(body="quarterly report draft", to=(a, c)),
            make_message(body="quarterly report draft", truth=Label.SPAM,
                         to=(b,), bcc=(c,)),
            make_message(body="cheap pills", truth=Label.SPAM, to=(a,)),
            make_message(body="see you at noon", to=(b,)),
        ]
        f = self.check(stream)
        assert sorted(f.user_models) == [a, b, c]
        assert f.user_models[c].spam_count["quarterly"] == 1
        assert f.user_models[c].ham_count["quarterly"] == 1

    def test_a_mailbox_that_gets_a_text_several_times(self):
        a, b = "a@example.org", "b@example.org"
        stream = [
            make_message(body="weekly digest news news", to=(a, b)),
            make_message(body="weekly digest news news", to=(a,)),
            make_message(body="weekly digest news news", to=(a,)),
            make_message(body="only mine twice", to=(b,)),
            make_message(body="only mine twice", to=(b,)),
            make_message(body="cheap pills", truth=Label.SPAM, to=(a, b)),
        ]
        f = self.check(stream)
        assert f.user_models[a].ham_count["news"] == 6
        assert f.user_models[b].ham_count.own["twice"] == 2

    def test_a_repeated_recipient_gets_every_copy(self):
        a, b = "a@example.org", "b@example.org"
        stream = [
            make_message(body="minutes attached", to=(a, b), cc=(a,)),
            make_message(body="cheap pills", truth=Label.SPAM, to=(a,),
                         bcc=(a, b)),
            make_message(body="lunch plans", to=(b,), bcc=(b,)),
        ]
        f = self.check(stream)
        assert f.user_models[a].n_ham_msgs == 2
        assert f.user_models[a].n_spam_msgs == 2
        assert f.user_models[b].ham_count["lunch"] == 2

    def test_seeded_streams(self):
        for seed in (1, 2, 3):
            self.check(seeded_stream(seed, 200), min_user_messages=5)

    def test_memory_follows_the_texts_not_the_mailboxes(self):
        """400 mailboxes that each get the same 20 texts hold under 4 kB
        each (about 1.6 kB on CPython 3.11). A Counter of every word per
        mailbox and class, as train_messages makes, takes about 27 kB."""
        rng = random.Random(3)
        vocab = [f"word{i:04d}" for i in range(2000)]
        addrs = tuple(f"u{i}@example.org" for i in range(400))
        stream = [
            make_message(
                body=" ".join(rng.sample(vocab, 40)), to=addrs[:1],
                bcc=addrs[1:], truth=Label.SPAM if i % 2 else Label.HAM,
            )
            for i in range(20)
        ]
        f = user_filter(5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f.train_user_models(stream)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(f.user_models) == 400
        assert held / 400 < 4_000, held
