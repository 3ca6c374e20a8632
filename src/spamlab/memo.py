"""A memo that keeps only the results of keys that recur."""

from __future__ import annotations


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
    """

    def __init__(self, compute):
        super().__init__()
        self.compute = compute
        self.seen: set[int] = set()  # hash(key) of every key looked up

    def __missing__(self, key):
        value = self.compute(key)
        h = hash(key)
        if h in self.seen:
            self[key] = value
        else:
            self.seen.add(h)
        return value

    __call__ = dict.__getitem__
