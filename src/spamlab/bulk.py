"""Traffic- and duplicate-based bulk mail filters.

The volume filter flags hosts that appear too often in a sliding window
over the connection log. The checksum filter flags bodies whose digest has
already been observed enough times, with an optional fuzzy normalization
that defeats per-recipient personalization.
"""

from __future__ import annotations

import re
from _blake2 import blake2b  # hashlib would load OpenSSL (~3.6 MB RSS)
from collections import Counter, deque
from dataclasses import dataclass, field

from .corpus import Label, Message, Verdict

DEFAULT_WINDOW_SIZE = 1500
DEFAULT_VOLUME_THRESHOLD = 100
DEFAULT_BULK_THRESHOLD = 5


@dataclass
class VolumeWindow:
    """Sliding FIFO window over the most recent connection-log entries."""

    window_size: int = DEFAULT_WINDOW_SIZE
    threshold: int = DEFAULT_VOLUME_THRESHOLD
    # When set, a log entry contributes its recipient count instead of 1.
    count_recipients: bool = False
    entries: deque = field(default_factory=deque)
    host_counts: Counter = field(default_factory=Counter)

    def count_for(self, host: str) -> int:
        return self.host_counts.get(host, 0)

    def push(self, host: str, weight: int) -> None:
        self.entries.append((host, weight))
        self.host_counts[host] += weight
        if len(self.entries) > self.window_size:
            old_host, old_weight = self.entries.popleft()
            self.host_counts[old_host] -= old_weight
            if self.host_counts[old_host] <= 0:
                del self.host_counts[old_host]


def volume_classify(window: VolumeWindow, m: Message) -> Verdict:
    """Classify by sender-host volume over the trailing window.

    SPAM iff the host of m already accounts for more than the threshold
    within the window; m's own log entry is appended afterwards, so a
    message never triggers on itself.
    """
    seen = window.count_for(m.origin_host)
    label = Label.SPAM if seen > window.threshold else Label.HAM
    weight = len(m.recipients) if window.count_recipients else 1
    window.push(m.origin_host, weight)
    return Verdict(label, None)


_DEAR_LINE_RE = re.compile(r"dear\s+\S+,\s*$")


def _normalize_fuzzy(body: str) -> str:
    lines = body.lower().split("\n")
    # personalization prefix: a leading "dear <login>," line
    first = 0
    while first < len(lines) and not lines[first].strip():
        first += 1
    if first < len(lines) and _DEAR_LINE_RE.match(lines[first].strip()):
        del lines[first]
    # random-word suffix: cut at the last blank line before the last text
    last = len(lines) - 1
    while last >= 0 and not lines[last].strip():
        last -= 1
    for i in range(last - 1, -1, -1):
        if not lines[i].strip():
            lines = lines[:i]
            break
    return " ".join("\n".join(lines).split())


def body_checksum(body: str, fuzzy: bool) -> str:
    """Stable 64-bit digest of a message body: 8-byte BLAKE2b in hex, from
    Python's builtin BLAKE2 module, so a run loads no OpenSSL.

    With fuzzy=True the body is normalized first: lowercased, whitespace
    runs collapsed, a leading "Dear <login>," line dropped, and the
    trailing paragraph after the final blank line dropped, so personalized
    variants of one payload collide.
    """
    text = _normalize_fuzzy(body) if fuzzy else body
    return blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class ChecksumDB:
    """Local clearinghouse: digest observation counts, append-only."""

    counts: dict[str, int] = field(default_factory=dict)
    bulk_threshold: int = DEFAULT_BULK_THRESHOLD


def checksum_classify(
    db: ChecksumDB, m: Message, fuzzy: bool, digests=None
) -> Verdict:
    """Classify by digest observation count, then report the digest.

    SPAM iff the digest of m.body has already been seen bulk_threshold or
    more times. The count is compared before the increment, so a body's
    first observations pass. digests is the digest lookup (body ->
    body_checksum(body, fuzzy)), plain body_checksum by default; a filter
    passes a Memo that keeps the digests of recurring bodies. The count
    and the threshold test run on every message either way.
    """
    digest = body_checksum(m.body, fuzzy) if digests is None else digests(m.body)
    seen = db.counts.get(digest, 0)
    label = Label.SPAM if seen >= db.bulk_threshold else Label.HAM
    db.counts[digest] = seen + 1
    return Verdict(label, None)
