import dataclasses
import re
import shlex
import subprocess
import sys

import pytest

from conftest import make_message
from spamlab.bayes import train_bayes
from spamlab.corpus import Label, parse_message, split_mbox, write_mbox
from spamlab import filters
from spamlab.errors import ConfigInvalid, TrainerFailed, WrapperCrashed
from spamlab.filters import (
    CONNLOG_ENV_VAR,
    FilterBinding,
    Level,
    Verdict,
    build_filter,
    classify,
    emit_training_sets,
    train,
)


def external_binding(code, name="ext", level=Level.USER, **kw):
    """Binding whose wrapper is an inline python script."""
    command = f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    return FilterBinding(name=name, level=level, command=command, **kw)


class TestBindingInvariants:
    def test_connlog_requires_server_level(self):
        with pytest.raises(ValueError):
            FilterBinding(
                name="x", level=Level.USER, builtin="volume",
                needs_connection_log=True,
            )

    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            FilterBinding(name="x", level=Level.USER)
        with pytest.raises(ValueError):
            FilterBinding(
                name="x", level=Level.USER, builtin="bayes", command="cat",
            )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"level": Level.USER, "builtin": "volume"}, "volume needs level S"),
            ({"level": Level.SERVER, "builtin": "bayes", "trainer_command": "cat"},
             "trainer.v is for external filters only"),
            ({"level": Level.USER, "builtin": "bayes", "options": {"nn": "3"}},
             "unknown option v.nn"),
            ({"level": Level.USER, "command": "cat", "options": {"n": "3"}},
             "unknown option v.n"),
        ],
        ids=["volume-at-U", "builtin-trainer", "unknown-option", "external-option"],
    )
    def test_builtin_rules_checked_when_made(self, fields, message):
        with pytest.raises(ConfigInvalid, match=re.escape(f"filter v: {message}")):
            FilterBinding(name="v", **fields)


class TestWrapperProtocol:
    def test_always_ham(self):
        f = build_filter(external_binding("print('ham')"))
        verdict = classify(f, make_message())
        assert verdict == Verdict(Label.HAM, None)

    def test_case_insensitive_label_with_score(self):
        f = build_filter(external_binding("print('SPAM 0.93')"))
        assert classify(f, make_message()) == Verdict(Label.SPAM, 0.93)

    def test_nonzero_exit_crashes(self):
        f = build_filter(external_binding("raise SystemExit(1)"))
        with pytest.raises(WrapperCrashed, match=r"^ext: exited 1$"):
            classify(f, make_message())

    def test_crash_ends_with_the_last_stderr_line(self):
        # a wrapper crash says why, as a trainer failure does
        code = "import sys\nsys.stderr.write('reading\\nboom\\n\\n')\nraise SystemExit(1)\n"
        f = build_filter(external_binding(code))
        with pytest.raises(WrapperCrashed, match=r"^ext: exited 1: boom$"):
            classify(f, make_message())

    def test_empty_output_crashes(self):
        f = build_filter(external_binding("pass"))
        with pytest.raises(WrapperCrashed):
            classify(f, make_message())

    def test_malformed_label_crashes(self):
        f = build_filter(external_binding("print('maybe')"))
        with pytest.raises(WrapperCrashed):
            classify(f, make_message())

    def test_bad_score_crashes(self):
        f = build_filter(external_binding("print('spam high')"))
        with pytest.raises(WrapperCrashed):
            classify(f, make_message())

    def test_message_arrives_on_stdin(self):
        code = (
            "import sys\n"
            "text = sys.stdin.read()\n"
            "print('spam' if 'pills' in text else 'ham')\n"
        )
        f = build_filter(external_binding(code))
        assert classify(f, make_message(body="cheap pills")).label is Label.SPAM
        assert classify(f, make_message(body="meeting notes")).label is Label.HAM

    def test_connlog_env_var(self, tmp_path):
        log = tmp_path / "connections.log"
        log.write_text("0\thost9\ta@b\t1\n")
        code = (
            "import os, sys\n"
            "sys.stdin.read()\n"
            "path = os.environ['SPAMLAB_CONNLOG']\n"
            "print('spam' if 'host9' in open(path).read() else 'ham')\n"
        )
        f = build_filter(
            external_binding(code, level=Level.SERVER, needs_connection_log=True),
            log_path=log,
        )
        assert classify(f, make_message()).label is Label.SPAM

    def test_log_path_required_when_binding_wants_log(self):
        binding = external_binding(
            "print('ham')", level=Level.SERVER, needs_connection_log=True
        )
        with pytest.raises(ValueError, match="connection log required"):
            build_filter(binding)

    def test_commands_split_once_when_built(self, monkeypatch):
        binding = external_binding(
            "print('ham')", trainer_command=f"{shlex.quote(sys.executable)} -V"
        )
        assert binding.argv == (sys.executable, "-c", "print('ham')")
        assert binding.trainer_argv == (sys.executable, "-V")
        assert external_binding("print('ham')").trainer_argv is None
        splits = []
        split = filters.shlex.split
        monkeypatch.setattr(
            filters.shlex, "split", lambda *a, **kw: splits.append(a) or split(*a, **kw)
        )
        f = build_filter(binding)
        for _ in range(3):
            assert classify(f, make_message()).label is Label.HAM
        assert splits == []

    def test_one_environment_per_connection_log(self, monkeypatch):
        f = build_filter(
            external_binding("", level=Level.SERVER, needs_connection_log=True),
            log_path="a.log",
        )
        envs = []

        def fake_run(argv, env=None, **kw):
            envs.append(env)
            return subprocess.CompletedProcess(argv, 0, b"ham\n", b"")

        monkeypatch.setattr(filters.subprocess, "run", fake_run)
        for _ in range(3):
            classify(f, make_message())
        assert [env[CONNLOG_ENV_VAR] for env in envs] == ["a.log"] * 3
        assert envs[0] is envs[1] is envs[2]

    @pytest.mark.parametrize("command", ["", "  ", "'abc"])
    def test_unsplittable_command_rejected_when_built(self, command):
        with pytest.raises(ConfigInvalid, match="external.x"):
            FilterBinding(name="x", level=Level.USER, command=command)

    def test_classify_does_not_mutate_message(self):
        f = build_filter(external_binding("print('ham')"))
        m = make_message()
        before = (m.body, m.subject, m.received_headers)
        classify(f, m)
        assert (m.body, m.subject, m.received_headers) == before


class TestEmitTrainingSets:
    def stream(self):
        ham = [
            make_message(body=f"ham {i}", truth=Label.HAM,
                         to=(f"user{i % 2}@example.org",))
            for i in range(3)
        ]
        spam = [
            make_message(body=f"spam {i}", truth=Label.SPAM,
                         to=("user0@example.org",))
            for i in range(2)
        ]
        return ham + spam

    def entries(self, path):
        return list(split_mbox(path.read_text(encoding="utf-8")))

    def test_general_partition_by_truth(self, tmp_path):
        ham_paths, spam_paths = emit_training_sets(self.stream(), tmp_path)
        assert len(self.entries(ham_paths[0])) == 3
        assert len(self.entries(spam_paths[0])) == 2

    def test_empty_stream_writes_empty_files(self, tmp_path):
        ham_paths, spam_paths = emit_training_sets([], tmp_path)
        assert ham_paths[0].read_text() == ""
        assert spam_paths[0].read_text() == ""

    def user_models(self, stream):
        f = build_filter(FilterBinding(
            name="bayes", level=Level.USER, builtin="bayes",
            options={"min_user_messages": "0"},
        ))
        f.train_user_models(stream)
        return f.user_models

    def test_per_user_partition_by_recipient(self, tmp_path):
        stream = [
            make_message(body=f"h{i}", truth=Label.HAM, to=("u@example.org",))
            for i in range(4)
        ] + [
            make_message(body="s", truth=Label.SPAM, to=("u@example.org",)),
            make_message(body="other", truth=Label.HAM, to=("v@example.org",)),
        ]
        # the general pair holds every message once; per-user sets are in memory
        ham_paths, spam_paths = emit_training_sets(stream, tmp_path)
        assert len(ham_paths) == len(spam_paths) == 1
        assert len(self.entries(ham_paths[0])) == 5
        assert len(self.entries(spam_paths[0])) == 1
        models = self.user_models(stream)
        assert list(models) == ["u@example.org"]  # v has only ham
        assert models["u@example.org"].n_ham_msgs == 4
        assert models["u@example.org"].n_spam_msgs == 1

    def test_bcc_recipients_receive_copies(self, tmp_path):
        m = make_message(
            body="broadcast", truth=Label.SPAM, to=(),
            bcc=("a@example.org", "b@example.org"),
        )
        stream = [m] + [
            make_message(body=f"hi {addr}", truth=Label.HAM, to=(addr,))
            for addr in ("a@example.org", "b@example.org")
        ]
        _, spam_paths = emit_training_sets(stream, tmp_path)
        assert len(self.entries(spam_paths[0])) == 1
        models = self.user_models(stream)
        assert sorted(models) == ["a@example.org", "b@example.org"]
        for model in models.values():
            assert model.n_spam_msgs == 1

    def test_round_trip_preserves_subject_and_body(self, tmp_path):
        m = make_message(body="From here\nto there", subject="tricky")
        ham_paths, _ = emit_training_sets([m], tmp_path)
        parsed = parse_message(self.entries(ham_paths[0])[0])
        assert parsed.body == m.body
        assert parsed.subject == m.subject


class TestTrain:
    def bayes_binding(self, **options):
        return FilterBinding(
            name="bayes", level=Level.USER, builtin="bayes", options=options
        )

    def test_builtin_bayes_trains_from_mboxes(self, tmp_path):
        stream = [
            make_message(body="hello colleagues", truth=Label.HAM),
            make_message(body="cheap pills", truth=Label.SPAM),
        ]
        ham_paths, spam_paths = emit_training_sets(stream, tmp_path)
        f = build_filter(self.bayes_binding())
        train(f, ham_paths[0], spam_paths[0], stream)
        assert f.model.n_spam_msgs == 1
        assert f.model.n_ham_msgs == 1

    def test_user_models_match_training_on_written_mboxes(self, tmp_path):
        a, b, c = "a@example.org", "b@example.org", "c@example.org"
        stream = [
            make_message(body="From the desk\nof the chair", to=(a, c)),
            make_message(body="minutes attached\n", subject="Re: minutes",
                         to=(a, b)),
            make_message(body="agenda items", to=(b,), cc=(c,)),
            make_message(body="cheap pills\n\nFrom our pharmacy\n",
                         subject="offer", truth=Label.SPAM, to=(), bcc=(a, b)),
            make_message(body="pills again", truth=Label.SPAM, to=(a,)),
        ]
        f = build_filter(self.bayes_binding(min_user_messages="0"))
        f.train_user_models(stream)
        assert sorted(f.user_models) == [a, b]  # c has only ham
        assert f.user_models[b].n_spam_msgs == 1  # b got only the Bcc copy
        for addr, model in f.user_models.items():
            mine = [m for m in stream if addr in m.recipients]
            ham, spam = tmp_path / f"{addr}.ham", tmp_path / f"{addr}.spam"
            write_mbox(ham, [m for m in mine if m.truth is Label.HAM])
            write_mbox(spam, [m for m in mine if m.truth is Label.SPAM])
            expected = train_bayes(ham, spam, f.n, f.threshold)
            for attr in ("spam_count", "ham_count", "n_spam_msgs",
                         "n_ham_msgs", "prior_spam"):
                assert getattr(model, attr) == getattr(expected, attr)

    def test_missing_spam_file_fails(self, tmp_path):
        stream = [make_message(body="hi", truth=Label.HAM)]
        ham_paths, _ = emit_training_sets(stream, tmp_path)
        f = build_filter(self.bayes_binding())
        with pytest.raises(TrainerFailed):
            train(f, ham_paths[0], tmp_path / "missing.mbox", stream)

    def test_classify_before_train_fails(self):
        f = build_filter(self.bayes_binding())
        with pytest.raises(TrainerFailed):
            classify(f, make_message())

    def test_external_trainer_success_and_failure(self, tmp_path):
        marker = tmp_path / "trained.txt"
        trainer_ok = (
            f"{shlex.quote(sys.executable)} -c "
            + shlex.quote(
                "import sys, pathlib\n"
                f"pathlib.Path({str(marker)!r}).write_text(' '.join(sys.argv[1:]))\n"
            )
        )
        binding = external_binding("print('ham')", trainer_command=trainer_ok)
        ham = tmp_path / "ham.mbox"
        spam = tmp_path / "spam.mbox"
        ham.write_text("")
        spam.write_text("")
        f = build_filter(binding)
        train(f, ham, spam, [])
        assert str(ham) in marker.read_text()
        assert str(spam) in marker.read_text()

        failing = FilterBinding(
            name="bad", level=Level.USER, command=binding.command,
            trainer_command=f"{shlex.quote(sys.executable)} -c 'raise SystemExit(3)'",
        )
        with pytest.raises(TrainerFailed, match=r"^bad: trainer exited 3$"):
            train(build_filter(failing), ham, spam, [])

        # the message ends with the last non-empty line the trainer printed
        # on stderr
        explained = FilterBinding(
            name="bad", level=Level.USER, command=binding.command,
            trainer_command=f"{shlex.quote(sys.executable)} -c " + shlex.quote(
                "import sys\n"
                "sys.stderr.write('reading ham\\nno state dir\\n\\n')\n"
                "raise SystemExit(3)\n"
            ),
        )
        with pytest.raises(
            TrainerFailed, match=r"^bad: trainer exited 3: no state dir$"
        ):
            train(build_filter(explained), ham, spam, [])


class TestBuiltinRegistry:
    def test_pass_all_and_block_all(self):
        passer = build_filter(
            FilterBinding(name="p", level=Level.USER, builtin="pass-all")
        )
        blocker = build_filter(
            FilterBinding(name="b", level=Level.USER, builtin="block-all")
        )
        spam = make_message(truth=Label.SPAM)
        assert classify(passer, spam).label is Label.HAM
        assert classify(blocker, spam).label is Label.SPAM

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError):
            build_filter(
                FilterBinding(name="x", level=Level.USER, builtin="psychic")
            )

    def test_builtin_options_respected(self):
        f = build_filter(FilterBinding(
            name="c", level=Level.USER, builtin="checksum",
            options={"threshold": "2"},
        ))
        assert f.db.bulk_threshold == 2

    def test_options_converted_once_when_bound(self, monkeypatch):
        binding = FilterBinding(
            name="b", level=Level.USER, builtin="bayes",
            options={"n": "7", "threshold": "0.5"},
        )
        assert binding.option_values == {"n": 7, "threshold": 0.5}
        monkeypatch.setattr(filters, "parse_value", None)  # any call fails
        f = build_filter(binding)
        assert (f.n, f.threshold) == (7, 0.5)

    def test_kept_values_leave_equality_hash_and_replace_alone(self):
        a = FilterBinding(name="c", level=Level.USER, command="cat -u")
        b = FilterBinding(name="c", level=Level.USER, command="cat -u")
        assert a == b and hash(a) == hash(b)
        assert "argv" not in repr(a)
        changed = dataclasses.replace(a, command="tac")
        assert changed.argv == ("tac",) and changed != a

    @pytest.mark.parametrize(
        "builtin, option, text, rule",
        [
            ("bayes", "n", "-5", ">= 1"),
            ("bayes", "n", "0", ">= 1"),
            ("bayes", "threshold", "1.5", "in [0, 1]"),
            ("bayes", "threshold", "-0.1", "in [0, 1]"),
            ("bayes", "min_user_messages", "-1", ">= 0"),
            ("volume", "window", "0", ">= 1"),
            ("volume", "threshold", "-1", ">= 0"),
            ("checksum", "threshold", "-1", ">= 1"),
            ("checksum-fuzzy", "threshold", "0", ">= 1"),
        ],
    )
    def test_out_of_range_options_rejected(self, builtin, option, text, rule):
        message = f"filter f: f.{option} = {text} must be {rule}"
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            FilterBinding(
                name="f", level=Level.SERVER, builtin=builtin,
                options={option: text},
            )

    def test_range_checked_for_library_callers(self):
        with pytest.raises(ConfigInvalid, match="c.threshold = 0"):
            FilterBinding(
                name="c", level=Level.SERVER, builtin="checksum",
                options={"threshold": "0"},
            )

    @pytest.mark.parametrize(
        "builtin, options",
        [
            ("bayes", {"n": "1", "threshold": "0", "min_user_messages": "0"}),
            ("bayes", {"threshold": "1"}),
            ("volume", {"window": "1", "threshold": "0"}),
            ("checksum", {"threshold": "1"}),
            ("checksum-fuzzy", {"threshold": "1"}),
        ],
    )
    def test_range_edges_accepted(self, builtin, options):
        build_filter(FilterBinding(
            name="f", level=Level.SERVER, builtin=builtin, options=options
        ))
