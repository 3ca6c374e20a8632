"""A memo that keeps only the results of keys that recur."""

from __future__ import annotations

from array import array

FREE = -1  # an empty slot of Memo.seen: hash() never returns -1


class Memo(dict):
    """Lookup key -> compute(key) that keeps the results of recurring keys.

    Call it with a key. The first lookup of a key computes the value and
    records only hash(key); the second computes it again and stores
    key -> value, and later lookups return the stored value without a
    call. A key seen once, like most personalized spam, is never held, so
    memory follows the recurring keys rather than all traffic. A hash
    collision can only store a key at its first lookup: the dict is keyed
    by the key itself, so it never returns another key's value. compute
    must give equal values for equal keys.

    The recorded hashes are kept exactly, in an open-addressing table
    (seen) of 8-byte slots probed linearly from hash & (len - 1). Its
    length is a power of two and it is kept at most half full, doubling
    when it would be fuller, so a key seen once costs 16-32 bytes.
    """

    def __init__(self, compute):
        super().__init__()
        self.compute = compute
        self.seen = array("q", [FREE]) * 8  # hash(key) of every key looked up
        self.room = len(self.seen) // 2  # hashes it takes before doubling

    def __missing__(self, key):
        value = self.compute(key)
        h = hash(key)
        seen = self.seen
        mask = len(seen) - 1
        i = h & mask
        while (s := seen[i]) != FREE:
            if s == h:
                self[key] = value
                return value
            i = (i + 1) & mask
        seen[i] = h
        if self.room:
            self.room -= 1
        else:
            self._grow()
        return value

    __call__ = dict.__getitem__

    def _grow(self):
        """Double the table, now one hash past half full, and reinsert
        every recorded hash."""
        old = self.seen
        seen = array("q", [FREE]) * (2 * len(old))
        mask = len(seen) - 1
        for h in old:
            if h != FREE:
                i = h & mask
                while seen[i] != FREE:
                    i = (i + 1) & mask
                seen[i] = h
        self.seen = seen
        self.room = len(old) // 2 - 1
