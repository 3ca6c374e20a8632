import random
import re
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import make_message
from spamlab.bulk import (
    ChecksumDB,
    VolumeWindow,
    body_checksum,
    checksum_classify,
    volume_classify,
)
from spamlab.corpus import Label
from spamlab.trafficgen import personalize


def host_message(host, step=0):
    return make_message(origin_host=host, step=step)


def brute_window_count(hosts, i, window_size):
    """Oracle: recount the trailing window at position i by slicing."""
    return hosts[max(0, i - window_size) : i].count(hosts[i])


class TestVolumeFilter:
    def test_empty_window_is_ham(self):
        w = VolumeWindow(threshold=0)
        verdict = volume_classify(w, host_message("h"))
        assert verdict.label is Label.HAM
        assert len(w.entries) == 1

    def test_over_threshold_is_spam(self):
        w = VolumeWindow(threshold=100)
        for _ in range(150):
            volume_classify(w, host_message("h"))
        assert volume_classify(w, host_message("h")).label is Label.SPAM

    def test_fifo_eviction_forgets_old_host(self):
        # oracle: replaying 1500 h then 1500 others leaves zero h entries
        w = VolumeWindow(window_size=1500, threshold=100)
        hosts = ["h"] * 1500 + [f"other{i}" for i in range(1500)]
        for i, host in enumerate(hosts):
            volume_classify(w, host_message(host))
        assert brute_window_count(hosts + ["h"], 3000, 1500) == 0
        assert volume_classify(w, host_message("h")).label is Label.HAM

    def test_streaming_matches_brute_force(self):
        rng = random.Random(7)
        hosts = [f"host{rng.randrange(6)}" for _ in range(2000)]
        w = VolumeWindow(window_size=100, threshold=10)
        for i, host in enumerate(hosts):
            expected = brute_window_count(hosts, i, 100) > 10
            got = volume_classify(w, host_message(host)).label is Label.SPAM
            assert got == expected, f"diverged at position {i}"

    def test_recipient_weighting_variant(self):
        w = VolumeWindow(threshold=5, count_recipients=True)
        m = make_message(
            origin_host="h",
            to=(),
            bcc=tuple(f"u{i}@example.org" for i in range(10)),
        )
        assert volume_classify(w, m).label is Label.HAM
        assert volume_classify(w, host_message("h")).label is Label.SPAM


class TestBodyChecksum:
    def test_identical_bodies_match_in_both_modes(self):
        for fuzzy in (False, True):
            assert body_checksum("buy pills", fuzzy) == body_checksum(
                "buy pills", fuzzy
            )

    def test_personalized_variants_collide_under_fuzzy(self):
        a = "Dear alice,\nbuy pills"
        b = "Dear bob,\nbuy pills"
        assert body_checksum(a, True) == body_checksum(b, True)
        assert body_checksum(a, True) == body_checksum("buy pills", True)

    def test_personalized_variants_differ_raw(self):
        a = "Dear alice,\nbuy pills"
        b = "Dear bob,\nbuy pills"
        assert body_checksum(a, False) != body_checksum(b, False)

    def test_trailing_random_paragraph_stripped(self):
        base = "exclusive deal\nact now"
        padded = base + "\n\nzebra quilt ochre"
        assert body_checksum(padded, True) == body_checksum(base, True)
        assert body_checksum(padded, False) != body_checksum(base, False)

    def test_case_and_space_runs_ignored_under_fuzzy(self):
        assert body_checksum("Buy  NOW today", True) == body_checksum(
            "buy now\ttoday", True
        )

    @given(st.text(alphabet=st.characters(blacklist_categories=("C",)), max_size=200))
    def test_fuzzy_invariance(self, body):
        # restrict to case-stable text: chars like 'ß' upper to 'SS'
        assume(body.upper().lower() == body.lower())
        variant = re.sub(" ", "  ", body.upper())
        assert body_checksum(body, True) == body_checksum(variant, True)


class TestChecksumFilter:
    def test_first_occurrence_is_ham(self):
        db = ChecksumDB(bulk_threshold=5)
        verdict = checksum_classify(db, make_message(body="novel"), fuzzy=False)
        assert verdict.label is Label.HAM
        assert list(db.counts.values()) == [1]

    def test_sixth_identical_body_is_spam(self):
        db = ChecksumDB(bulk_threshold=5)
        labels = [
            checksum_classify(db, make_message(body="same"), fuzzy=False).label
            for _ in range(6)
        ]
        assert labels[:5] == [Label.HAM] * 5
        assert labels[5] is Label.SPAM

    def test_sixth_personalized_variant_is_spam_under_fuzzy(self):
        # normalization oracle: every variant reduces to the same payload
        db = ChecksumDB(bulk_threshold=5)
        labels = [
            checksum_classify(
                db,
                make_message(body=personalize("buy pills", f"user{i}@x.y")),
                fuzzy=True,
            ).label
            for i in range(6)
        ]
        assert labels[5] is Label.SPAM
        assert len(db.counts) == 1

    def test_verdicts_depend_only_on_digest_multiset(self):
        # interleaving unrelated digests does not change a body's verdicts
        plain = ChecksumDB(bulk_threshold=2)
        plain_labels = [
            checksum_classify(plain, make_message(body="x"), False).label
            for _ in range(4)
        ]
        mixed = ChecksumDB(bulk_threshold=2)
        mixed_labels = []
        for i in range(4):
            checksum_classify(mixed, make_message(body=f"noise{i}"), False)
            mixed_labels.append(
                checksum_classify(mixed, make_message(body="x"), False).label
            )
        assert plain_labels == mixed_labels
