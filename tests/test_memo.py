from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

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
