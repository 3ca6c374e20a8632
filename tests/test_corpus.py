import re
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_message
from spamlab.corpus import (
    MAX_TOKEN_LEN,
    MIN_TOKEN_LEN,
    load_corpus,
    parse_message,
    render_message,
    split_mbox,
    tokenize,
    write_mbox,
)
from spamlab.errors import ConfigInvalid

# hand-built two-message mbox: bodies recovered after the "From " split
TWO_MESSAGE_MBOX = (
    "From alice@example.org 0\n"
    "From: alice@example.org\n"
    "To: bob@example.org\n"
    "Subject: first\n"
    "Message-ID: <1@a>\n"
    "\n"
    "body one\n"
    "From bob@example.org 1\n"
    "From: bob@example.org\n"
    "To: alice@example.org\n"
    "Subject: second\n"
    "Message-ID: <2@b>\n"
    "\n"
    "body two\n"
)


# mbox-like text from the pieces the splitter and the quoting act on
MBOX_TEXT = st.lists(
    st.sampled_from(
        ["From ", ">From ", ">>From ", "From x\n", "\n", "\r\n", "a", "Zq"]
    ),
    max_size=16,
).map("".join)


class TestLoadCorpus:
    def test_directory_in_filename_order(self, tmp_path):
        d = tmp_path / "topic"
        d.mkdir()
        (d / "b.txt").write_text("second")
        (d / "a.txt").write_text("first")
        (d / "c.txt").write_text("third")
        corpus = load_corpus(d, "topic")
        assert corpus.bodies == ("first", "second", "third")
        assert corpus.topic == "topic"

    def test_empty_directory_raises(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        expect = f"^topic corpus has no messages: {re.escape(str(d))}$"
        with pytest.raises(ConfigInvalid, match=expect):
            load_corpus(d, "topic")

    def test_missing_path_raises(self, tmp_path):
        missing = tmp_path / "nope"
        expect = f"^topic corpus not found: {re.escape(str(missing))}$"
        with pytest.raises(ConfigInvalid, match=expect):
            load_corpus(missing, "topic")

    def test_mbox_file_two_entries(self, tmp_path):
        p = tmp_path / "archive.mbox"
        p.write_text(TWO_MESSAGE_MBOX)
        corpus = load_corpus(p, "spam")
        assert corpus.bodies == ("body one", "body two")

    def test_reload_is_deterministic(self, tmp_path):
        d = tmp_path / "topic"
        d.mkdir()
        for name in ("zz", "m1", "aa"):
            (d / name).write_text(name)
        first = load_corpus(d, "t").bodies
        second = load_corpus(d, "t").bodies
        assert first == second == ("aa", "m1", "zz")


class TestRenderMessage:
    def test_empty_cc_is_omitted(self):
        m = make_message(cc=())
        assert "Cc:" not in render_message(m)

    def test_rendering_is_byte_stable(self):
        m = make_message()
        assert render_message(m) == render_message(m)

    def test_received_lines_first_in_order(self):
        m = make_message(received=("one", "two"))
        text = render_message(m)
        lines = text.split("\n")
        assert lines[0] == "Received: one"
        assert lines[1] == "Received: two"
        assert text.count("Received:") == 2

    def test_parse_round_trips_fields_and_body(self):
        m = make_message(
            body="line one\n\nline two",
            cc=("x@y.z",),
            bcc=("q@r.s", "t@u.v"),
        )
        parsed = parse_message(render_message(m))
        assert parsed.from_addr == m.from_addr
        assert parsed.to_addrs == m.to_addrs
        assert parsed.cc_addrs == m.cc_addrs
        assert parsed.bcc_addrs == m.bcc_addrs
        assert parsed.subject == m.subject
        assert parsed.message_id == m.message_id
        assert parsed.received_headers == m.received_headers
        assert parsed.body == m.body


class TestMbox:
    def test_split_round_trips_from_lines_in_body(self, tmp_path):
        tricky = "From the start\n>From quoted\nnormal line"
        m = make_message(body=tricky)
        path = tmp_path / "t.mbox"
        write_mbox(path, [m, m])
        entries = list(split_mbox(path.read_text()))
        assert len(entries) == 2
        for entry in entries:
            assert parse_message(entry).body == tricky

    def test_split_is_a_generator(self):
        assert isinstance(split_mbox(TWO_MESSAGE_MBOX), types.GeneratorType)

    @given(MBOX_TEXT)
    @example("no separator\nat all\n")
    @example("before the first\nFrom x\nbody\n")
    @example("From x\nbody\nFrom last")  # yields ""
    @example("From a\nFrom b\n\nFrom c\nbody")
    @example("From a\nbody\n\n\n")
    @example("From a\r\n>From b\n>>From c\nFrom d\n")
    @example("From a\nx\n\nFrom b\ny\n")  # -> ["x\n", "y"]
    def test_split_matches_the_line_loop(self, text):
        assert list(split_mbox(text)) == reference_split_mbox(text)

    @given(st.lists(MBOX_TEXT, max_size=4))
    @example(["From the start\n>From quoted\n>>From twice\nFrom x\n", ""])
    def test_write_matches_the_line_loop(self, bodies):
        messages = [make_message(body=b, step=i) for i, b in enumerate(bodies)]
        assert mbox_bytes(messages) == reference_write_mbox(messages).encode("utf-8")

    @given(st.lists(MBOX_TEXT, max_size=4))
    def test_write_then_split_round_trips(self, bodies):
        messages = [make_message(body=b, step=i) for i, b in enumerate(bodies)]
        entries = list(split_mbox(mbox_bytes(messages).decode("utf-8")))
        assert entries == [render_message(m) for m in messages]
        assert [parse_message(e).body for e in entries] == bodies


def mbox_bytes(messages):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.mbox"
        write_mbox(path, messages)
        return path.read_bytes()


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_splitting_and_lowercasing(self):
        assert tokenize("Buy NOW!! Buy") == ["buy", "now", "buy"]

    def test_short_tokens_dropped(self):
        assert tokenize("a xx") == ["xx"]

    def test_kept_punctuation_classes(self):
        assert tokenize("it's $9.99 re-send") == ["it's", "$9", "99", "re-send"]

    def test_overlong_tokens_dropped(self):
        assert tokenize("x" * 41 + " ok") == ["ok"]

    @given(st.text())
    def test_no_uppercase_or_whitespace(self, s):
        for token in tokenize(s):
            assert token == token.lower()
            assert not any(c.isspace() for c in token)
            assert 2 <= len(token) <= 40

    @given(st.text())
    def test_concatenation_after_separator(self, s):
        s = s + "."  # force a trailing separator
        assert tokenize(s + s) == tokenize(s) + tokenize(s)

    @given(
        st.lists(
            st.one_of(
                st.text(),
                st.text(alphabet="aZ9_'$- .\n", max_size=12),
                st.text(alphabet="éÉßǅİ٣ﬁ _", max_size=12),
                st.integers(39, 43).map(lambda n: "Ab'-$" * (n // 5) + "x" * (n % 5)),
            ),
            max_size=6,
        ).map(" ".join)
    )
    def test_matches_the_match_by_match_loop(self, s):
        assert tokenize(s) == reference_tokenize(s)

    def test_every_code_point_matches_the_reference(self):
        doubled = [
            chr(c) * 2 for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF
        ]
        runs = [
            "x" * 40, "x" * 41, "Ab'-$" * 8, "Ab'-$" * 8 + "9",
            "İ" * 20, "İ" * 21, "_" + "y" * 40 + "_", "_" + "y" * 41 + "_",
        ]
        for text in (" ".join(doubled + runs), "_".join(doubled + runs)):
            assert tokenize(text) == reference_tokenize(text)

    def test_time_is_linear_in_run_length(self):
        # A pattern that backtracked over each long run would not finish.
        assert tokenize("a" * 1_000_000) == []
        assert tokenize("ab_" * 300_000) == ["ab"] * 300_000


# The original token pattern: a run of letters, digits and ' $ -, one
# alternation per character, with the length bounds applied afterwards.
REFERENCE_TOKEN_RE = re.compile(r"(?:[^\W_]|['$-])+")


def reference_tokenize(text):
    """tokenize as a loop over regex matches, one group() per token."""
    tokens = []
    for match in REFERENCE_TOKEN_RE.finditer(text.lower()):
        token = match.group()
        if MIN_TOKEN_LEN <= len(token) <= MAX_TOKEN_LEN:
            tokens.append(token)
    return tokens


def reference_split_mbox(text):
    """split_mbox as a loop over the lines of the whole text."""
    entries = []
    current = None
    for line in text.split("\n"):
        if line.startswith("From "):
            if current is not None:
                entries.append("\n".join(current))
            current = []
        elif current is not None:
            if re.match(r">+From ", line):
                line = line[1:]
            current.append(line)
    if current is not None:
        # only the last entry loses the newline write_mbox put after it
        last = "\n".join(current)
        entries.append(last[:-1] if last.endswith("\n") else last)
    return entries


def reference_write_mbox(messages):
    """The text write_mbox writes, quoting line by line."""
    out = []
    for m in messages:
        out.append(f"From {m.from_addr} {m.step}\n")
        out.append("\n".join(
            ">" + line if re.match(r">*From ", line) else line
            for line in render_message(m).split("\n")
        ) + "\n")
    return "".join(out)


class TestMessageInvariants:
    def test_requires_a_recipient(self):
        with pytest.raises(ValueError):
            make_message(to=(), cc=(), bcc=())

    def test_immutable(self):
        m = make_message()
        with pytest.raises(AttributeError):
            m.body = "changed"
