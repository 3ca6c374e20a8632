"""Message corpora, the email data model, and tokenization.

Ham corpora are directories of plain-text files grouped by topic; spam
corpora are directories or mbox archives. Messages render to a stable
RFC822-style wire format, so identical inputs always yield identical bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import EmptyCorpus, MissingPath


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

# Token characters: unicode alphanumerics plus ' - $ so that contractions,
# hyphenated words, markup names, and dollar amounts survive as features.
_TOKEN_RE = re.compile(r"(?:[^\W_]|['$-])+")


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens.

    Any character outside [alphanumeric ' - $] separates tokens. Tokens
    shorter than 2 or longer than 40 characters are dropped. Order and
    multiplicity are preserved; output never contains uppercase characters
    or whitespace.
    """
    return [
        t for t in _TOKEN_RE.findall(text.lower())
        if MIN_TOKEN_LEN <= len(t) <= MAX_TOKEN_LEN
    ]


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


_QUOTED_FROM_RE = re.compile(r">+From ")
_QUOTABLE_FROM_RE = re.compile(r">*From ")
_HEADER_LINE_RE = re.compile(r"^[!-9;-~]+: ?")


def split_mbox(text: str) -> list[str]:
    """Split mbox text into message texts.

    Messages are separated by lines beginning "From "; the separator lines
    themselves are dropped. ">From"-style quoting applied by write_mbox is
    undone, and the single newline appended after each message is stripped.
    Content before the first separator is ignored.
    """
    entries: list[str] = []
    current: list[str] | None = None
    for line in text.split("\n"):
        if line.startswith("From "):
            if current is not None:
                entries.append(_finish_entry(current))
            current = []
        elif current is not None:
            if _QUOTED_FROM_RE.match(line):
                line = line[1:]
            current.append(line)
    if current is not None:
        entries.append(_finish_entry(current))
    return entries


def _finish_entry(lines: list[str]) -> str:
    text = "\n".join(lines)
    return text[:-1] if text.endswith("\n") else text


def write_mbox(path, messages, render=render_message) -> None:
    """Write messages to an mbox file with "From " separator lines.

    Body lines that would collide with the separator are quoted with a
    leading '>' so split_mbox round-trips the text exactly.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for m in messages:
            fh.write(f"From {m.from_addr} {m.step}\n")
            quoted = "\n".join(
                ">" + line if _QUOTABLE_FROM_RE.match(line) else line
                for line in render(m).split("\n")
            )
            fh.write(quoted + "\n")


def load_corpus(path, topic: str) -> Corpus:
    """Load message bodies from a directory of text files or an mbox file.

    Directories contribute one body per file in lexicographic filename
    order; a file whose first line begins "From " is treated as mbox and
    contributes one body per entry. Bytes are decoded as UTF-8 with
    replacement characters for invalid sequences.

    Raises MissingPath if the path does not exist and EmptyCorpus if it
    yields zero bodies.
    """
    p = Path(path)
    if not p.exists():
        raise MissingPath(str(p))
    bodies: list[str] = []
    if p.is_dir():
        for child in sorted(p.iterdir(), key=lambda c: c.name):
            if child.is_file():
                bodies.extend(_bodies_from_file(child))
    else:
        bodies.extend(_bodies_from_file(p))
    if not bodies:
        raise EmptyCorpus(str(p))
    return Corpus(topic=topic, bodies=tuple(bodies), source_path=str(p))


def _bodies_from_file(path: Path) -> list[str]:
    text = path.read_bytes().decode("utf-8", errors="replace")
    if text.startswith("From "):
        return [_entry_body(entry) for entry in split_mbox(text)]
    return [text]


def _entry_body(entry: str) -> str:
    # Full messages contribute only their body; bare-text entries pass
    # through whole.
    head, sep, body = entry.partition("\n\n")
    if sep and head and _HEADER_LINE_RE.match(head.split("\n", 1)[0]):
        return body
    return entry
