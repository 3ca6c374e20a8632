import hashlib
import os
import random
import re
import subprocess
import sys
import time

from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import make_message
from spamlab.bulk import (
    ChecksumDB,
    VolumeWindow,
    _normalize_fuzzy,
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


def reference_normalize_fuzzy(body):
    """The fuzzy rule as first written: from the last blank line back, cut
    at the first one that has a non-blank line after it."""
    lines = body.lower().split("\n")
    first = 0
    while first < len(lines) and not lines[first].strip():
        first += 1
    if first < len(lines) and re.match(r"dear\s+\S+,\s*$", lines[first].strip()):
        del lines[first]
    blanks = [i for i, line in enumerate(lines) if not line.strip()]
    for i in reversed(blanks):
        if any(line.strip() for line in lines[i + 1 :]):
            lines = lines[:i]
            break
    return " ".join("\n".join(lines).split())


BODY_LINES = st.sampled_from(
    ["", "  \t", " ", "Dear x,", "dear  Bob, ", "buy pills", "Act NOW"]
)

DIGEST_BODIES = [
    "buy pills", "Dear alice,\nbuy pills\n\nzebra quilt", "", "Grüße, 日本 ½"
]


def run_python(code):
    """Run code in a fresh interpreter with this process's import path;
    return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestFuzzyNormalization:
    @given(st.lists(BODY_LINES, max_size=12))
    def test_matches_the_reference_rule(self, lines):
        body = "\n".join(lines)
        assert _normalize_fuzzy(body) == reference_normalize_fuzzy(body)

    def test_trailing_blank_lines_take_linear_time(self):
        body = "exclusive deal\n\nact now" + "\n" * 100_000
        start = time.perf_counter()
        assert _normalize_fuzzy(body) == "exclusive deal"
        assert time.perf_counter() - start < 2


class TestDigest:
    def test_is_8_byte_blake2b_hex(self):
        for body in DIGEST_BODIES:
            for fuzzy in (False, True):
                text = _normalize_fuzzy(body) if fuzzy else body
                expected = hashlib.blake2b(text.encode("utf-8"), digest_size=8)
                assert body_checksum(body, fuzzy) == expected.hexdigest()

    def test_checksum_run_loads_no_openssl(self, tmp_path, scenario_builder):
        path = scenario_builder(
            tmp_path, scenario_overrides={"filters": "checksum S; checksum-fuzzy S"}
        )
        out_dir = tmp_path / "out"
        out = run_python(
            "import sys\n"
            "from spamlab.evalcli import load_scenario, run_scenario\n"
            f"results = run_scenario(load_scenario({str(path)!r}), {str(out_dir)!r})\n"
            "print(sorted(r.name for r in results))\n"
            "print('hashlib' in sys.modules, '_hashlib' in sys.modules)\n"
        )
        assert out.splitlines() == ["['checksum', 'checksum-fuzzy']", "False False"]


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
