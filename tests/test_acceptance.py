"""Acceptance suite: one test per release criterion.

Each test prints a PASS line on success so a verbose run reads as a
criterion checklist. Published reference measurements for nine production
filters (three spam scenarios) pin the wrongness metric and the ranking;
the other criteria check oracle equivalences, statistical behavior, and
end-to-end determinism at their stated tolerances.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import build_scenario_files, make_message, synth_bodies
from spamlab.bayes import (
    bayes_classify,
    combine_spam_probability,
    interesting_words,
    train_bayes,
)
from spamlab.bulk import ChecksumDB, VolumeWindow, checksum_classify, volume_classify
from spamlab.corpus import Corpus, Label
from spamlab.evalcli import ConfusionCounts, FilterResult, far, frr, main, rank, wrongness
from spamlab.filters import Level, emit_training_sets
from spamlab.trafficgen import (
    SimConfig,
    World,
    calibrate_spam_fraction,
    measure_spam_fraction,
    step,
)

# Published reference measurements: (filter, level, FRR, FAR, W*1e5) per
# scenario, rows in published rank order. FRR/FAR carry the full published
# precision; the W column is printed rounded to three significant digits.
REFERENCE_RESULTS = {
    "non-personalized": [
        ("Bogofilter", "U", 0.00003, 0.14458, 1.56),
        ("Bmf", "U", 0.01172, 0.02947, 1.86),
        ("Mail volume", "S", 0.0, 0.63396, 6.44),
        ("SpamAssassin", "U/S", 0.00716, 0.21303, 6.57),
        ("DCC", "U/S", 0.00058, 0.62491, 7.11),
        ("Bmf", "S", 0.0004, 0.65614, 7.20),
        ("Bogofilter", "S", 0.00005, 0.70976, 7.27),
        ("Spamprove", "U", 0.00858, 0.21587, 7.80),
        ("Spamprove", "S", 0.00243, 0.69501, 10.9),
    ],
    "personalized": [
        ("Mail volume", "S", 0.0, 0.19698, 2.07),
        ("Bogofilter", "U", 0.0, 0.23301, 2.43),
        ("Bmf", "U", 0.0037, 0.18642, 3.70),
        ("Spamprove", "U", 0.00059, 0.32534, 3.76),
        ("SpamAssassin", "U/S", 0.00704, 0.21716, 6.60),
        ("DCC", "U/S", 0.00284, 0.71054, 11.9),
    ],
    "recent": [
        ("Bmf", "U", 0.00308, 0.07006, 1.37),
        ("Bogofilter", "U", 0.00007, 0.12933, 1.41),
        ("Spamprove", "U", 0.00408, 0.13815, 2.94),
        ("SpamAssassin", "U/S", 0.00742, 0.17924, 5.74),
        ("Mail volume", "S", 0.00004, 0.64251, 6.58),
    ],
}


def test_c1_wrongness_reproduction():
    """C1: recomputed W*1e5 matches every published row within 0.06."""
    for scenario, rows in REFERENCE_RESULTS.items():
        for name, level, frr_value, far_value, printed in rows:
            recomputed = wrongness(far_value, frr_value, 0.01) * 1e5
            assert recomputed == pytest.approx(printed, abs=0.06), (
                f"{scenario}: {name} {level}: {recomputed:.4f} vs {printed}"
            )
    print("ACCEPTANCE C1 wrongness reproduction: PASS")


def test_c2_ranking_reproduction():
    """C2: rank() over the (FAR, FRR) pairs reproduces each row order."""
    for scenario, rows in REFERENCE_RESULTS.items():
        results = [
            FilterResult(
                name=f"{name} {level}",
                level=Level.SERVER if level == "S" else Level.USER,
                counts=ConfusionCounts(),
                far=far_value,
                frr=frr_value,
                wrongness=wrongness(far_value, frr_value),
            )
            for name, level, frr_value, far_value, _printed in rows
        ]
        shuffled = list(results)
        random.Random(1).shuffle(shuffled)
        expected = [f"{name} {level}" for name, level, *_ in rows]
        assert [r.name for r in rank(shuffled)] == expected, scenario
    print("ACCEPTANCE C2 ranking reproduction: PASS")


def test_c3_bayes_oracle_equivalence():
    """C3: log-space posterior matches brute-force products to 1e-9 and
    the two-class posteriors sum to one within 1e-12 on 1000 cases."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n_words = int(rng.integers(1, 21))
        probs = rng.uniform(0.01, 0.99, size=n_words).tolist()
        prior = float(rng.choice([0.3, 0.5, 0.7]))

        numerator = prior
        ham_side = 1.0 - prior
        for p in probs:
            numerator *= p
            ham_side *= 1.0 - p
        brute = numerator / (numerator + ham_side)

        log_space = combine_spam_probability(probs, prior)
        assert abs(log_space - brute) <= 1e-9

        dual = combine_spam_probability([1.0 - p for p in probs], 1.0 - prior)
        assert abs(log_space + dual - 1.0) <= 1e-12
    print("ACCEPTANCE C3 bayes oracle equivalence: PASS")


def test_c4_bayes_separability(tmp_path):
    """C4: disjoint-vocabulary training separates perfectly and 80%-spam
    mixtures classify SPAM at T=0.9."""
    spam_vocab = [f"offer{i:03d}" for i in range(100)]
    ham_vocab = [f"note{i:03d}" for i in range(100)]
    ham_train = [
        make_message(body=b, subject="", truth=Label.HAM)
        for b in synth_bodies(ham_vocab, 50, 12, seed=11)
    ]
    spam_train = [
        make_message(body=b, subject="", truth=Label.SPAM)
        for b in synth_bodies(spam_vocab, 50, 12, seed=12)
    ]
    ham_paths, spam_paths = emit_training_sets(ham_train + spam_train, tmp_path)
    model = train_bayes(ham_paths[0], spam_paths[0], n=15, threshold=0.9)

    fresh = [
        (body, Label.HAM) for body in synth_bodies(ham_vocab, 100, 10, seed=21)
    ] + [
        (body, Label.SPAM) for body in synth_bodies(spam_vocab, 100, 10, seed=22)
    ]
    correct = sum(
        bayes_classify(model, make_message(body=body, subject="")).label is truth
        for body, truth in fresh
    )
    assert correct == 200  # 100% on 200 fresh single-vocabulary messages

    rng = random.Random(31)
    for _ in range(20):
        words = rng.sample(spam_vocab, 16) + rng.sample(ham_vocab, 4)
        rng.shuffle(words)
        m = make_message(body=" ".join(words), subject="")
        assert bayes_classify(model, m).label is Label.SPAM
    print("ACCEPTANCE C4 bayes separability: PASS")


def _memory_corpora():
    ham = [
        Corpus(
            topic=f"topic{t}",
            bodies=tuple(
                synth_bodies([f"t{t}word{i:03d}" for i in range(60)], 30, 16, t)
            ),
            source_path="<memory>",
        )
        for t in range(3)
    ]
    spam = Corpus(
        topic="spam",
        bodies=tuple(
            synth_bodies([f"pitch{i:03d}" for i in range(60)], 20, 16, 99)
        ),
        source_path="<memory>",
    )
    return ham, spam


def test_c5_traffic_statistics():
    """C5: calibration hits the 0.4 spam-fraction target on a
    20000-message run, and ham recipient distances pass a KS test against
    an independent Monte-Carlo oracle for sigma in {3, 10}."""
    ham_corpora, spam_corpus = _memory_corpora()
    config = SimConfig(seed=2024)  # default topology, target 0.4
    calibrated = calibrate_spam_fraction(replace(config, steps=1200))
    rng = random.Random(calibrated.seed)
    world = World(calibrated, ham_corpora, spam_corpus, rng)
    messages = []
    while len(messages) < 20000:
        messages.extend(m for m, _ in step(world, rng))
    fraction = measure_spam_fraction(messages)
    assert 0.38 <= fraction <= 0.42, f"spam fraction {fraction:.4f}"

    for sigma in (3.0, 10.0):
        n_users = 500
        config = SimConfig(
            n_users=n_users, n_mailing_lists=0, n_spammers=0,
            sigma=sigma, seed=77, send_prob=0.3, recipients_mean=1.0,
        )
        rng = random.Random(config.seed)
        world = World(config, ham_corpora, None, rng)
        distances = []
        for _ in range(100):
            for m, _entry in step(world, rng):
                sender = int(m.from_addr.split("@")[0][4:])
                recipient = int(m.to_addrs[0].split("@")[0][4:]) if m.to_addrs else None
                if recipient is None:
                    addr = m.recipients[0]
                    recipient = int(addr.split("@")[0][4:])
                delta = (recipient - sender) % n_users
                distances.append(min(delta, n_users - delta))

        # independent oracle: folded rounded normal conditioned on nonzero
        oracle_rng = np.random.default_rng(1234 + int(sigma))
        draws = oracle_rng.normal(0.0, sigma, size=200000)
        rounded = np.sign(draws) * np.floor(np.abs(draws) + 0.5)
        rounded = rounded[rounded != 0]
        folded = np.abs(rounded) % n_users
        oracle = np.minimum(folded, n_users - folded)

        result = stats.ks_2samp(np.asarray(distances), oracle)
        assert result.pvalue > 0.01, f"sigma={sigma}: p={result.pvalue:.5f}"
    print("ACCEPTANCE C5 traffic statistics: PASS")


def test_c6_volume_filter_oracle():
    """C6: streaming verdicts equal a brute-force trailing-window recount
    on a 10^4 stream, and a threshold above every ham host's window count
    yields FRR = 0 exactly."""
    rng = random.Random(606)
    hosts, truths = [], []
    for _ in range(10000):
        if rng.random() < 0.25:
            hosts.append(f"relay{rng.randrange(2)}.open.example")
            truths.append(Label.SPAM)
        else:
            hosts.append(f"host{rng.randrange(30)}.client.example")
            truths.append(Label.HAM)

    window_size, threshold = 1500, 60
    window = VolumeWindow(window_size=window_size, threshold=threshold)
    verdicts = []
    for i, host in enumerate(hosts):
        brute = hosts[max(0, i - window_size) : i].count(host)
        verdict = volume_classify(
            window, make_message(origin_host=host, truth=truths[i])
        )
        verdicts.append(verdict.label)
        assert (verdict.label is Label.SPAM) == (brute > threshold), i

    # FRR = 0 exactly once the threshold clears every ham host's peak
    ham_peak = max(
        hosts[max(0, i - window_size) : i].count(h)
        for i, h in enumerate(hosts)
        if truths[i] is Label.HAM
    )
    window = VolumeWindow(window_size=window_size, threshold=ham_peak)
    counts = ConfusionCounts()
    for host, truth in zip(hosts, truths):
        verdict = volume_classify(window, make_message(origin_host=host, truth=truth))
        counts.record(truth, verdict.label)
    assert frr(counts) == 0.0
    print("ACCEPTANCE C6 volume filter oracle: PASS")


def test_c7_checksum_personalization():
    """C7: a 50-message personalized burst is caught (>= 45 SPAM) under
    fuzzy checksums and entirely missed under raw checksums."""
    ham_corpora, spam_corpus = _memory_corpora()
    config = SimConfig(
        n_users=60, n_mailing_lists=0, n_spammers=1,
        send_prob=0.0, activation_prob=0.0,
        burst_rate=50, spammer_db_size=50, seed=7,
    )
    rng = random.Random(config.seed)
    world = World(config, ham_corpora, spam_corpus, rng, personalize_spam=True)
    spammer = world.spammers[0]
    spammer.current_body = spam_corpus.bodies[0]
    burst = [m for m, _ in step(world, rng)]
    assert len(burst) == 50
    prefixes = {m.body.split("\n", 1)[0] for m in burst}
    assert len(prefixes) == 50  # distinct "Dear <login>," lines

    fuzzy_db = ChecksumDB(bulk_threshold=5)
    fuzzy_spam = sum(
        checksum_classify(fuzzy_db, m, fuzzy=True).label is Label.SPAM
        for m in burst
    )
    raw_db = ChecksumDB(bulk_threshold=5)
    raw_spam = sum(
        checksum_classify(raw_db, m, fuzzy=False).label is Label.SPAM
        for m in burst
    )
    assert fuzzy_spam >= 45
    assert raw_spam == 0
    print("ACCEPTANCE C7 checksum personalization: PASS")


def test_c8_end_to_end_determinism(tmp_path):
    """C8: two runs of one scenario file produce byte-identical
    results.csv."""
    scenario_path = build_scenario_files(
        tmp_path, scenario_overrides={"training_steps": 40, "eval_steps": 80}
    )
    assert main(["run", str(scenario_path), "-o", str(tmp_path / "runA")]) == 0
    assert main(["run", str(scenario_path), "-o", str(tmp_path / "runB")]) == 0
    first = (tmp_path / "runA" / "results.csv").read_bytes()
    second = (tmp_path / "runB" / "results.csv").read_bytes()
    assert first == second
    print("ACCEPTANCE C8 end-to-end determinism: PASS")


def test_c9_reference_filter_sanity():
    """C9: pass-all scores FAR=1/FRR=0, block-all FAR=0/FRR=1, and the
    wrongness asymmetry orders block-all as worse."""
    truths = [Label.SPAM] * 40 + [Label.HAM] * 60
    passer = ConfusionCounts()
    blocker = ConfusionCounts()
    for truth in truths:
        passer.record(truth, Label.HAM)
        blocker.record(truth, Label.SPAM)
    assert far(passer) == 1.0 and frr(passer) == 0.0
    assert far(blocker) == 0.0 and frr(blocker) == 1.0
    assert wrongness(0.0, 1.0) > wrongness(1.0, 0.0)
    assert wrongness(1.0, 0.0) == pytest.approx(1.01e-4)
    print("ACCEPTANCE C9 reference filter sanity: PASS")
