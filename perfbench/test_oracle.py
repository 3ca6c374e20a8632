"""Tests of the benchmark's own oracle, wrapper scripts and tracer on
hand-made inputs.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from oracle import HAM, SPAM  # noqa: E402


class TestTokenize:
    def test_separators_case_and_length(self):
        text = "Hello, WORLD! it's $5 a-b x_y 9 " + "z" * 41 + " Ünïcode"
        assert oracle.tokenize(text) == ["hello", "world", "it's", "$5", "a-b", "ünïcode"]

    def test_underscore_splits_a_run(self):
        assert oracle.tokenize("snake_case_name") == ["snake", "case", "name"]


def _counts(spam_bodies, ham_bodies):
    model = oracle.BayesCounts()
    for body in spam_bodies:
        model.add(SPAM, [], oracle.tokenize(body))
    for body in ham_bodies:
        model.add(HAM, [], oracle.tokenize(body))
    return model


class TestBayes:
    def test_exact_threshold_is_ham(self):
        # spaminess of "ww" is (9/1) / (9/1 + 1/1) = 9/10 and the prior is
        # 1/2, so the posterior is exactly 9/10: not above 0.9
        model = _counts(["ww " * 9], ["ww"])
        assert model.classify("", "ww", 15, 0.9) == HAM
        assert model.classify("", "ww", 15, 0.89) == SPAM

    def test_clamping_and_unseen_words(self):
        model = _counts(["cash prize"], ["lunch today"])
        assert model.ratio("cash")[1:] == (99, 100)
        assert model.ratio("lunch")[1:] == (1, 100)
        assert model.ratio("never")[1:] == (1, 2)
        assert model.classify("", "cash never", 15, 0.9) == SPAM
        assert model.classify("", "lunch never", 15, 0.9) == HAM

    def test_only_the_most_polarized_words_count(self):
        # "aa" is pure spam (0.99); "bb" leans ham (1/3); with n = 1 only
        # "aa" is used, with n = 2 both are
        model = _counts(["aa bb"], ["bb bb"])
        assert model.classify("", "aa bb", 1, 0.9) == SPAM
        assert model.classify("", "aa bb", 2, 0.95) == SPAM
        assert model.classify("", "aa bb", 2, 0.99) == HAM

    def test_no_tokens_is_ham_even_with_a_spammy_prior(self):
        model = _counts(["aa"] * 19, ["bb"])
        assert model.classify("", "!", 15, 0.9) == HAM
        assert model.classify("", "zz", 15, 0.9) == SPAM  # neutral word: posterior = prior 0.95

    def test_user_models_fall_back_to_the_general_one(self):
        rich, thin, other = "rich@example.org", "thin@example.org", "other@example.org"
        training = (
            [_Msg(SPAM, "cash offer", (rich,))] * 5
            + [_Msg(HAM, "lunch today", (rich,))] * 5
            + [_Msg(SPAM, "deal now", (other,))] * 10
            + [_Msg(HAM, "hello there", (thin,))] * 3
        )
        evaluation = [_Msg(HAM, "deal", (rich,)), _Msg(HAM, "deal", (thin,))]
        # rich@ has 5 of each class and its own model, which never saw
        # "deal" (posterior = prior 1/2); thin@ has no spam and falls back
        # to the general model, where "deal" is pure spam
        assert oracle._bayes_verdicts("U", training, evaluation) == [HAM, SPAM]
        assert oracle._bayes_verdicts("S", training, evaluation) == [SPAM, SPAM]


class _Truth:
    def __init__(self, value):
        self.value = value


class _Msg:
    def __init__(self, truth, body, recipients):
        self.truth = _Truth(truth)
        self.subject = ""
        self.body = body
        self.recipients = recipients


class TestBulk:
    def test_volume_window_over_a_short_log(self):
        log = [f"0\t{host}\tx@y\t1" for host in "aaabaa"]
        # window 3, threshold 1: SPAM once a host has 2 of the 3 lines before
        assert oracle.volume_verdicts(log, 3, 1) == [HAM, HAM, SPAM, HAM, SPAM, SPAM]

    def test_volume_window_forgets_old_lines(self):
        log = [f"0\t{host}\tx@y\t1" for host in "aabbba"]
        assert oracle.volume_verdicts(log, 3, 1) == [HAM, HAM, HAM, HAM, SPAM, HAM]

    def test_fuzzy_normal_drops_greeting_and_last_paragraph(self):
        a = "Dear bob,\nBuy  NOW\ncheap\n\nrandom words here"
        b = "dear alice,\nbuy now\n  cheap\n\nother words\n\n"
        assert oracle.fuzzy_normal(a) == oracle.fuzzy_normal(b) == "buy now cheap"

    def test_fuzzy_normal_keeps_single_paragraph_and_plain_first_line(self):
        assert oracle.fuzzy_normal("Dear bob smith,\nhello") == "dear bob smith, hello"
        assert oracle.fuzzy_normal("  One\tparagraph  \n") == "one paragraph"

    def test_checksum_counts_before_increment(self):
        verdicts = oracle.checksum_verdicts(["x"] * 7 + ["y"], 5)
        assert verdicts == [HAM] * 5 + [SPAM, SPAM, HAM]


def _sh(script, *args, stdin="", env=None):
    return subprocess.run(
        ["sh", str(inputs.SH_DIR / script), *map(str, args)],
        input=stdin, capture_output=True, text=True, env=env,
    )


MESSAGE = (
    "Received: from h by mx.example.org; step 0 seq 1\n"
    "From: deals0@bulkmail.example.net\nTo: user1@example.org\n"
    f"Subject: hello\nMessage-ID: <1.0@h>\n\nfirst line\nlast line {inputs.MARKER}"
)


class TestWrappers:
    def test_marker_on_an_unterminated_last_line(self, tmp_path):
        state = tmp_path / "state"
        state.write_text("ham 1\nspam 1\n")
        body = MESSAGE.split("\n\n", 1)[1]
        assert oracle.marker_verdict(body, inputs.MARKER) == SPAM
        got = _sh("marker_filter.sh", inputs.MARKER, state, stdin=MESSAGE)
        assert (got.returncode, got.stdout) == (0, "spam\n")
        # the pitfall this input is built for: a plain read loop never
        # sees the last line
        naive = subprocess.run(
            ["sh", "-c", 'v=ham; while IFS= read -r l; do case " $l " in'
             f' *" {inputs.MARKER} "*) v=spam;; esac; done; echo $v'],
            input=MESSAGE, capture_output=True, text=True,
        )
        assert naive.stdout == "ham\n"

    def test_marker_in_headers_only_is_ham(self, tmp_path):
        state = tmp_path / "state"
        state.write_text("ham 1\nspam 1\n")
        message = MESSAGE.replace(f"last line {inputs.MARKER}", "last line").replace(
            "Subject: hello", f"Subject: {inputs.MARKER}"
        )
        assert _sh("marker_filter.sh", inputs.MARKER, state, stdin=message).stdout == "ham\n"

    def test_marker_filter_needs_training(self, tmp_path):
        assert _sh("marker_filter.sh", inputs.MARKER, tmp_path / "none", stdin=MESSAGE).returncode == 3

    def test_sender_filter_reads_log_and_from_header(self, tmp_path):
        log = tmp_path / "connections.log"
        log.write_text("0\th\tdeals0@bulkmail.example.net\t1\n")
        env = {"PATH": "/usr/bin:/bin", "SPAMLAB_CONNLOG": str(log)}
        got = _sh("sender_filter.sh", inputs.SPAM_SENDER_DOMAIN, stdin=MESSAGE, env=env)
        assert (got.returncode, got.stdout) == (0, "spam\n")
        ham = MESSAGE.replace("deals0@bulkmail.example.net", "user0@example.org")
        assert _sh("sender_filter.sh", inputs.SPAM_SENDER_DOMAIN, stdin=ham, env=env).stdout == "ham\n"
        assert oracle.sender_verdict("deals0@bulkmail.example.net", inputs.SPAM_SENDER_DOMAIN) == SPAM

    def test_sender_filter_without_log_fails(self):
        env = {"PATH": "/usr/bin:/bin"}
        assert _sh("sender_filter.sh", inputs.SPAM_SENDER_DOMAIN, stdin=MESSAGE, env=env).returncode == 3

    def test_trainer_counts_messages_not_quoted_lines(self, tmp_path):
        ham = tmp_path / "ham.mbox"
        ham.write_text("From a 1\nSubject: x\n\n>From here\nFrom b 2\nSubject: y\n\nlast")
        spam = tmp_path / "spam.mbox"
        spam.write_text("From c 3\nSubject: z\n\nbody\n")
        state = tmp_path / "state"
        assert _sh("count_trainer.sh", state, ham, spam).returncode == 0
        assert state.read_text() == "ham 2\nspam 1\n"


class TestReports:
    def test_ranking_and_formatting(self):
        rows = [
            ("pass-all", "U", {"ss": 0, "sh": 4, "hs": 0, "hh": 6}),
            ("block-all", "S", {"ss": 4, "sh": 0, "hs": 6, "hh": 0}),
            ("only-ham", "U", {"ss": 0, "sh": 0, "hs": 1, "hh": 3}),
        ]
        assert oracle.expected_results_csv(rows) == (
            "filter,level,n_spam,n_ham,ss,sh,hs,hh,wrapper_errors,frr,far,wrongness\r\n"
            "pass-all,U,4,6,0,4,0,6,0,0,1,0.000101\r\n"
            "block-all,S,4,6,4,0,6,0,0,1,0,0.010201\r\n"
            "only-ham,U,0,4,0,0,1,3,0,0.25,,\r\n"
        )


class TestTracer:
    def test_installs_on_the_current_code_and_restores(self):
        from spamlab import evalcli, trafficgen

        tracer = layers.Tracer()
        tracer.install()
        try:
            assert evalcli.step is not trafficgen.step
        finally:
            tracer.uninstall()
        assert evalcli.step is trafficgen.step

    def test_a_moved_name_fails_loudly(self, monkeypatch):
        from spamlab import evalcli

        monkeypatch.setattr(evalcli, "step", lambda world, rng: [])
        with pytest.raises(layers.SiteMissing, match="trafficgen.step"):
            layers.Tracer().install()

    def test_idle_working_layer_is_reported(self):
        metrics = {f"{layer}.calls": 1 for layer, *_ in layers.SITES}
        metrics["bayes.user_models.kept"] = 3
        assert layers.check_working("user-bayes", metrics) == []
        metrics["bayes.train_bayes.calls"] = 0
        assert layers.check_working("user-bayes", metrics) == ["bayes.train_bayes"]
