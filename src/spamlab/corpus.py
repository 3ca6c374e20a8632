"""Message corpora, the email data model, and tokenization.

Ham corpora are directories of plain-text files grouped by topic; spam
corpora are directories or mbox archives. Messages render to a stable
RFC822-style wire format, so identical inputs always yield identical bytes.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TextIO

from .errors import ConfigInvalid


class Label(Enum):
    """Ground-truth or predicted class of a message."""

    SPAM = "spam"
    HAM = "ham"


@dataclass(frozen=True)
class Verdict:
    """A filter's classification, with an optional confidence score."""

    label: Label
    score: float | None = None


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of message bodies for one topic."""

    topic: str
    bodies: tuple[str, ...]
    source_path: str


@dataclass(frozen=True)
class Message:
    """One email with its ground-truth label and simulated origin.

    Immutable after construction; address lists are stored as tuples so
    instances are safe to share between filters.
    """

    from_addr: str
    to_addrs: tuple[str, ...]
    cc_addrs: tuple[str, ...]
    bcc_addrs: tuple[str, ...]
    subject: str
    message_id: str
    received_headers: tuple[str, ...]
    body: str
    truth: Label
    origin_host: str
    step: int

    def __post_init__(self):
        for name in ("to_addrs", "cc_addrs", "bcc_addrs", "received_headers"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not (self.to_addrs or self.cc_addrs or self.bcc_addrs):
            raise ValueError("message must have at least one recipient")
        if self.step < 0:
            raise ValueError("step must be >= 0")

    @property
    def recipients(self) -> tuple[str, ...]:
        return self.to_addrs + self.cc_addrs + self.bcc_addrs


@dataclass(frozen=True)
class ParsedMessage:
    """Header fields and body recovered from rendered message text."""

    from_addr: str
    to_addrs: tuple[str, ...]
    cc_addrs: tuple[str, ...]
    bcc_addrs: tuple[str, ...]
    subject: str
    message_id: str
    received_headers: tuple[str, ...]
    body: str


MIN_TOKEN_LEN = 2
MAX_TOKEN_LEN = 40

# Token characters: unicode letters and digits plus ' - $ so that
# contractions, hyphenated words, markup names, and dollar amounts survive
# as features. tokenize maps "_" to a space first, so \w stands for letters
# and digits. The lookarounds match only whole runs, so a run outside the
# length bounds yields nothing rather than a piece of itself.
_TOKEN_CHAR = r"[\w'$-]"
_TOKEN_RE = re.compile(
    rf"(?<!{_TOKEN_CHAR}){_TOKEN_CHAR}{{{MIN_TOKEN_LEN},{MAX_TOKEN_LEN}}}"
    rf"(?!{_TOKEN_CHAR})"
)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens.

    The text is lowercased; a token is a run of letters, digits, ' - and $.
    "_" and every other character separate tokens. Runs shorter than 2 or
    longer than 40 characters are dropped whole. Order and multiplicity are
    preserved; output never contains uppercase characters or whitespace.
    """
    return _TOKEN_RE.findall(text.lower().replace("_", " "))


def render_message(m: Message) -> str:
    """Render a message to its canonical wire format.

    One "Received:" line per entry in order, then From/To/Cc/Bcc (empty
    recipient lists are omitted), Subject, Message-ID, a blank line, and
    the body verbatim. Lines are LF-terminated; output is byte-exact for
    identical inputs.
    """
    lines = [f"Received: {entry}" for entry in m.received_headers]
    lines.append(f"From: {m.from_addr}")
    if m.to_addrs:
        lines.append("To: " + ", ".join(m.to_addrs))
    if m.cc_addrs:
        lines.append("Cc: " + ", ".join(m.cc_addrs))
    if m.bcc_addrs:
        lines.append("Bcc: " + ", ".join(m.bcc_addrs))
    lines.append(f"Subject: {m.subject}")
    lines.append(f"Message-ID: {m.message_id}")
    return "\n".join(lines) + "\n\n" + m.body


def parse_message(text: str) -> ParsedMessage:
    """Parse rendered message text back into header fields and body.

    Inverse of render_message for messages produced by it (no header
    folding or MIME handling).
    """
    head, _, body = text.partition("\n\n")
    received: list[str] = []
    fields = {"From": "", "Subject": "", "Message-ID": ""}
    lists: dict[str, tuple[str, ...]] = {"To": (), "Cc": (), "Bcc": ()}
    for line in head.split("\n"):
        name, sep, value = line.partition(":")
        if not sep:
            continue
        value = value[1:] if value.startswith(" ") else value
        if name == "Received":
            received.append(value)
        elif name in lists:
            lists[name] = tuple(a for a in value.split(", ") if a)
        elif name in fields:
            fields[name] = value
    return ParsedMessage(
        from_addr=fields["From"],
        to_addrs=lists["To"],
        cc_addrs=lists["Cc"],
        bcc_addrs=lists["Bcc"],
        subject=fields["Subject"],
        message_id=fields["Message-ID"],
        received_headers=tuple(received),
        body=body,
    )


_QUOTED_FROM_RE = re.compile(r"^>(>*From )", re.M)
_QUOTABLE_FROM_RE = re.compile(r"^(>*From )", re.M)
_HEADER_LINE_RE = re.compile(r"^[!-9;-~]+: ?")


# Characters split_mbox reads from an mbox file at a time.
_CHUNK = 1 << 16
_SEPARATOR = "\nFrom "


def split_mbox(source: str | TextIO) -> Iterator[str]:
    """Yield the message texts of an mbox, one at a time.

    source is the mbox text, or a text file open for reading: open it as
    encoding="utf-8", errors="replace", newline="" to split a file's bytes
    as their decoded text would be. Messages are separated by lines
    beginning "From "; each separator line is dropped with the newline
    before it, the one write_mbox appends to the message before. The last
    message loses one trailing newline, the one write_mbox appends to it,
    so a message's own last newline is kept. ">From"-style quoting applied
    by write_mbox is undone. Content before the first separator is
    ignored. A generator: it cuts out one message text at a time, so a
    caller that parses as it goes holds one message beside a str input,
    and reads a file a fixed chunk at a time, so of a file it holds that
    chunk and the message being cut, whatever the file's size.
    """
    pieces = (source,) if isinstance(source, str) else _mbox_pieces(source)
    for piece in pieces:
        yield from _split_text(piece)


def _mbox_pieces(fh: TextIO) -> Iterator[str]:
    """Cut an open mbox file into texts that each end just before a
    separator line, with its newline, and the rest of the file last; the
    texts split as the whole text would. Each read is searched with the
    last len(_SEPARATOR) - 1 characters before it, and pending text is
    joined only at a cut, so time is linear in the file's length."""
    pending: list[str] = []
    tail = ""
    while chunk := fh.read(_CHUNK):
        window = tail + chunk
        tail = window[1 - len(_SEPARATOR) :]
        cut = window.rfind(_SEPARATOR) + 1
        pending.append(chunk)
        if cut:
            text = "".join(pending)
            cut += len(text) - len(window)
            yield text[:cut]
            pending = [text[cut:]]
    yield "".join(pending)


def _split_text(text: str) -> Iterator[str]:
    if text.startswith("From "):
        start = 0
    else:
        start = text.find(_SEPARATOR) + 1
        if not start:
            return
    while True:
        eol = text.find("\n", start)
        if eol < 0:  # a last separator line with no newline
            yield ""
            return
        end = text.find(_SEPARATOR, eol)
        entry = text[eol + 1 : end] if end >= 0 else text[eol + 1 :]
        if end < 0 and entry.endswith("\n"):
            entry = entry[:-1]
        # The substitution visits every line start; most entries hold no
        # quoted line at all, and a substring test skips them.
        yield _QUOTED_FROM_RE.sub(r"\1", entry) if ">From " in entry else entry
        if end < 0:
            return
        start = end + 1


def write_mbox(path, messages, render=render_message) -> None:
    """Write messages to an mbox file with "From " separator lines.

    Lines that would collide with the separator ("From ", ">From ", ...)
    are quoted with a leading '>', and each text is followed by one
    newline, so split_mbox gives each rendered text back exactly.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for m in messages:
            fh.write(f"From {m.from_addr} {m.step}\n")
            text = render(m)
            if "From " in text:  # as in split_mbox: most texts need no quoting
                text = _QUOTABLE_FROM_RE.sub(r">\1", text)
            fh.write(text + "\n")


def load_corpus(path, topic: str) -> Corpus:
    """Load message bodies from a directory of text files or an mbox file.

    Directories contribute one body per file in lexicographic filename
    order; a file whose first line begins "From " is treated as mbox and
    contributes one body per entry, read a chunk at a time (see
    split_mbox). Bytes are decoded as UTF-8 with replacement characters
    for invalid sequences.

    Raises ConfigInvalid if the path does not exist, cannot be listed or
    read, or yields zero bodies.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigInvalid(f"{topic} corpus not found: {p}")
    bodies: list[str] = []
    try:
        if p.is_dir():
            for child in sorted(p.iterdir(), key=lambda c: c.name):
                if child.is_file():
                    bodies.extend(_bodies_from_file(child))
        else:
            bodies.extend(_bodies_from_file(p))
    except OSError as exc:
        where = exc.filename or p
        raise ConfigInvalid(
            f"{topic} corpus cannot be read: {where}: {exc.strerror or exc}"
        ) from exc
    if not bodies:
        raise ConfigInvalid(f"{topic} corpus has no messages: {p}")
    return Corpus(topic=topic, bodies=tuple(bodies), source_path=str(p))


def _bodies_from_file(path: Path) -> list[str]:
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        is_mbox = fh.read(5) == "From "
        fh.seek(0)
        if is_mbox:
            return [_entry_body(entry) for entry in split_mbox(fh)]
        return [fh.read()]


def _entry_body(entry: str) -> str:
    # Full messages contribute only their body; bare-text entries pass
    # through whole.
    head, sep, body = entry.partition("\n\n")
    if sep and head and _HEADER_LINE_RE.match(head.split("\n", 1)[0]):
        return body
    return entry
