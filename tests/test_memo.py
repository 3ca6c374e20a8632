import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spamlab import bayes, bulk, filters
from spamlab.bayes import Text
from spamlab.corpus import tokenize
from spamlab.evalcli import load_scenario, run_scenario
from spamlab.memo import Memo

LINEUPS = {
    "bayes-S": {
        "filters": "bayes S", "level": "S", "personalized": "true",
        "bogus_headers": "true", "random_words": "true",
    },
    "bayes-U": {"filters": "bayes U"},
    "checksums": {
        "filters": "checksum S; checksum-fuzzy S", "level": "S",
        "personalized": "true", "random_words": "true",
    },
}


@pytest.fixture
def counting_memos(monkeypatch):
    """The verdict and digest memos of a run (both made in filters); each
    counts the lookups of every key in .lookups."""
    made = []

    class CountingMemo(Memo):
        def __init__(self, compute):
            super().__init__(compute)
            self.lookups = Counter()
            made.append(self)

        def __call__(self, key):
            self.lookups[key] += 1
            return self[key]

    monkeypatch.setattr(filters, "Memo", CountingMemo)
    return made


def plain_recomputation(monkeypatch):
    """Tokens, verdicts and digests computed afresh at every lookup."""
    monkeypatch.setattr(bayes, "TokenMemo", lambda: tokenize)
    # a memo that is its compute function recomputes at every lookup
    monkeypatch.setattr(filters, "Memo", lambda compute: compute)


class TestMemo:
    def test_stores_from_the_second_lookup(self):
        computed = Counter()

        def square(x):
            computed[x] += 1
            return x * x

        memo = Memo(square)
        for key in (3, 4, 3, 5, 3, 4, 3):
            assert memo(key) == key * key
        assert dict(memo) == {3: 9, 4: 16}
        assert computed == Counter({3: 2, 4: 2, 5: 1})

    def test_hash_collision_stores_early_never_wrong(self):
        class Colliding(str):
            def __hash__(self):
                return 7

        memo = Memo(str.upper)
        a, b = Colliding("alpha"), Colliding("beta")
        assert memo(a) == "ALPHA" and len(memo) == 0
        assert memo(b) == "BETA" and list(memo) == [b]
        assert memo(a) == "ALPHA" and memo(b) == "BETA"


HALF = 2**63

# hashes that land on one slot of many table sizes, that equal each other,
# the extremes of a 64-bit hash, and any other
HASHES = st.one_of(
    st.sampled_from([0, -2, 1, 8, 2**62, HALF - 1, -HALF]),
    st.integers(0, 2**16).map(lambda n: n << 14),
    st.integers(-HALF, HALF - 1),
)


class Hashed(str):
    """A key whose hash is chosen; equal texts must get equal hashes."""

    def __new__(cls, text, h):
        key = super().__new__(cls, text)
        key.h = h
        return key

    def __hash__(self):
        return self.h


class SetMemo(dict):
    """The second-lookup rule over a set of the hashes seen, as the
    reference for Memo's table."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute
        self.seen = set()

    def __missing__(self, key):
        value = self.compute(key)
        h = hash(key)
        if h in self.seen:
            self[key] = value
        else:
            self.seen.add(h)
        return value

    __call__ = dict.__getitem__


def numbered_calls():
    """A compute function whose value names the key and the call."""
    calls = Counter()

    def compute(key):
        calls[key] += 1
        return str(key), calls[key]

    return compute, calls


class TestSeenTable:
    @settings(deadline=None, max_examples=50)
    @given(
        hashes=st.lists(HASHES, min_size=1, max_size=40),
        picks=st.lists(st.integers(0, 39), max_size=120),
        base=st.integers(-HALF, HALF - 1),
        stride=st.tuples(st.integers(0, 3), st.integers(0, HALF - 1)).map(
            lambda t: (2 * t[1] + 1) << t[0]
        ),
    )
    def test_stores_what_a_set_of_hashes_stores(self, hashes, picks, base, stride):
        drawn = [Hashed(f"k{i}", h) for i, h in enumerate(hashes)]
        picked = [drawn[p % len(drawn)] for p in picks]
        # more than 2048 distinct hashes: the 8-slot table doubles 10 times
        filler = [
            Hashed(f"f{i}", (base + i * stride + HALF) % (2 * HALF) - HALF)
            for i in range(2100)
        ]
        keys = picked + filler + picked + filler[::7] + picked
        compute, calls = numbered_calls()
        ref_compute, ref_calls = numbered_calls()
        memo, ref = Memo(compute), SetMemo(ref_compute)
        assert [memo(k) for k in keys] == [ref(k) for k in keys]
        assert list(memo.items()) == list(ref.items())
        assert calls == ref_calls
        assert len(memo.seen) >= 8 << 10

    def test_a_key_seen_once_costs_at_most_32_bytes(self):
        keys = [f"personalized body {i}" for i in range(100_000)]
        memo = Memo(len)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for key in keys:
                memo(key)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(memo) == 0
        assert grown <= 32 * len(keys), grown / len(keys)


class TestMemosInARun:
    @pytest.mark.parametrize("lineup", sorted(LINEUPS))
    def test_results_match_plain_recomputation(
        self, tmp_path, scenario_builder, monkeypatch, counting_memos, lineup
    ):
        path = scenario_builder(tmp_path, scenario_overrides=LINEUPS[lineup])
        run_scenario(load_scenario(path), tmp_path / "memo")
        assert sum(len(memo) for memo in counting_memos) > 0
        plain_recomputation(monkeypatch)
        run_scenario(load_scenario(path), tmp_path / "plain")
        memo_csv = (tmp_path / "memo" / "results.csv").read_bytes()
        assert memo_csv == (tmp_path / "plain" / "results.csv").read_bytes()

    @pytest.mark.parametrize("lineup", sorted(LINEUPS))
    def test_memos_hold_the_keys_looked_up_twice(
        self, tmp_path, scenario_builder, counting_memos, lineup
    ):
        path = scenario_builder(tmp_path, scenario_overrides=LINEUPS[lineup])
        run_scenario(load_scenario(path), tmp_path / "out")
        assert counting_memos
        for memo in counting_memos:
            recurring = {k for k, n in memo.lookups.items() if n >= 2}
            assert set(memo) == recurring
        assert any(max(memo.lookups.values(), default=0) > 2 for memo in counting_memos)

    def test_patched_module_functions_see_every_computation(
        self, tmp_path, scenario_builder, monkeypatch, counting_memos
    ):
        """The memos call bayes.bayes_classify and bulk.body_checksum
        through their modules at call time, once per lookup that is not
        served from a memo."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            bayes, "bayes_classify", counting("bayes", bayes.bayes_classify)
        )
        monkeypatch.setattr(
            bulk, "body_checksum", counting("checksum", bulk.body_checksum)
        )
        path = scenario_builder(tmp_path, scenario_overrides=dict(
            LINEUPS["bayes-S"], filters="bayes S; checksum S; checksum-fuzzy S",
        ))
        run_scenario(load_scenario(path), tmp_path / "out")
        misses = Counter()
        for memo in counting_memos:
            kind = "checksum" if isinstance(next(iter(memo.lookups)), str) else "bayes"
            misses[kind] += sum(min(n, 2) for n in memo.lookups.values())
        assert calls == misses and calls["bayes"] > 0 and calls["checksum"] > 0


class TestVerdictMemo:
    def test_key_names_the_deciding_model(self):
        """One text sent to a mailbox with its own model and to one on the
        general model is stored under two keys, with each model's verdict."""
        def model(spam_words, ham_words):
            spam = [Text("", spam_words)] * 3
            ham = [Text("", ham_words)] * 3
            return bayes.train_messages(ham, spam)

        general = model("offer today", "meeting notes")
        own = model("meeting notes", "offer today")
        f = filters.build_filter(filters.FilterBinding(
            name="bayes", level=filters.Level.USER, builtin="bayes",
        ))
        f.model, f.user_models = general, {"alice@example.org": own}
        verdicts = {}
        for addr in ("alice@example.org", "bob@example.org") * 2:
            m = SimpleNamespace(
                recipients=(addr,), subject="hello", body="offer today"
            )
            verdicts.setdefault(addr, set()).add(f.classify(m))
        text = Text("hello", "offer today")
        assert set(f.verdicts) == {("alice@example.org", text), (None, text)}
        assert verdicts == {
            "alice@example.org": {bayes.bayes_classify(replace(own), text)},
            "bob@example.org": {bayes.bayes_classify(replace(general), text)},
        }
        assert verdicts["alice@example.org"] != verdicts["bob@example.org"]
