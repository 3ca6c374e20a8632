"""Independent recomputation of a run's outputs.

The stream is regenerated with the program's own World/step (the traffic
model is the thing under test only through its log), and every filter's
verdicts are recomputed from the rules in README.md and the module
docstrings, written anew here: the tokenizer, Bayes with per-user models
and the general-model fallback, the volume window over the log alone, raw
and fuzzy checksums, the external wrappers' rules, pass-all and block-all.
"""

from __future__ import annotations

import bisect
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import inputs

SPAM, HAM = "spam", "ham"
EPSILON = 0.01
# Allowed distance between the recipient-weighted spam share of the
# evaluation log and target_spam_fraction. Calibration aims within 0.02 on
# long pilots; 150 evaluation steps of bursty spam add more.
SHARE_TOLERANCE = 0.05


class OracleMismatch(Exception):
    """The program's output differs from the independent recomputation."""


# --- tokenizer ---------------------------------------------------------------

_RUN_RE = re.compile(r"[\w'$-]+")


def tokenize(text: str) -> list[str]:
    """Lowercase; a token is a run of letters, digits, ' - and $ (the
    underscore separates); keep tokens of 2 to 40 characters."""
    return [
        piece
        for run in _RUN_RE.findall(text.lower())
        for piece in run.split("_")
        if 2 <= len(piece) <= 40
    ]


# --- Bayes ---------------------------------------------------------------------


class BayesCounts:
    """Token occurrence counts (with multiplicity) per class, and message
    counts, over subject plus body."""

    def __init__(self):
        self.tokens = {SPAM: Counter(), HAM: Counter()}
        self.messages = {SPAM: 0, HAM: 0}
        self._ratio: dict[str, tuple[float, int, int]] = {}
        self._verdicts: dict[tuple, str] = {}

    def add(self, truth: str, subject_tokens, body_tokens) -> None:
        self.tokens[truth].update(subject_tokens)
        self.tokens[truth].update(body_tokens)
        self.messages[truth] += 1

    def ratio(self, word: str) -> tuple[float, int, int]:
        """(distance from 1/2 as a correctly rounded float, a, b) with the
        clamped word spaminess exactly a/b."""
        got = self._ratio.get(word)
        if got is None:
            n_s, n_h = self.messages[SPAM], self.messages[HAM]
            s, h = self.tokens[SPAM][word], self.tokens[HAM][word]
            a, b = s * n_h, s * n_h + h * n_s  # (s/n_s) / (s/n_s + h/n_h)
            if b == 0:
                a, b = 1, 2  # unseen: neutral
            elif 100 * a < b:
                a, b = 1, 100
            elif 100 * a > 99 * b:
                a, b = 99, 100
            got = (abs(2 * a - b) / (2 * b), a, b)
            self._ratio[word] = got
        return got

    def _exact_distance(self, word: str) -> Fraction:
        _, a, b = self.ratio(word)
        return Fraction(abs(2 * a - b), 2 * b)

    def classify(self, subject: str, body: str, n: int, threshold: float) -> str:
        key = (subject, body, n, threshold)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._classify(subject, body, n, threshold)
            self._verdicts[key] = verdict
        return verdict

    def _classify(self, subject, body, n, threshold) -> str:
        distinct = set(tokenize(subject)) | set(tokenize(body))
        if not distinct:
            return HAM
        ranked = sorted(distinct, key=lambda w: (-self.ratio(w)[0], w))
        if len(ranked) > n:
            # Floats order exactly except where two distances round to
            # one float; re-rank exactly if such a tie straddles the cut.
            edge = self.ratio(ranked[n - 1])[0]
            tied = {self._exact_distance(w) for w in ranked if self.ratio(w)[0] == edge}
            if len(tied) > 1:
                ranked = sorted(distinct, key=lambda w: (-self._exact_distance(w), w))
        spam_side = self.messages[SPAM]
        ham_side = self.messages[HAM]
        for w in ranked[:n]:
            _, a, b = self.ratio(w)
            spam_side *= a
            ham_side *= b - a
        # posterior = spam_side / (spam_side + ham_side); SPAM iff it
        # strictly exceeds the threshold, compared exactly.
        t = Fraction(threshold)
        spam = spam_side * t.denominator > t.numerator * (spam_side + ham_side)
        return SPAM if spam else HAM


# --- bulk filters --------------------------------------------------------------


def fuzzy_normal(body: str) -> str:
    """Body as the fuzzy checksum sees it: lowercased, a leading
    "dear <login>," line dropped, the paragraph after the last blank line
    dropped, whitespace runs collapsed to one space."""
    lines = body.lower().split("\n")
    filled = [i for i, line in enumerate(lines) if line.strip()]
    if filled:
        words = lines[filled[0]].split()
        if len(words) == 2 and words[0] == "dear" and words[1].endswith(",") and len(words[1]) > 1:
            del lines[filled[0]]
            filled = [i for i, line in enumerate(lines) if line.strip()]
    if filled:
        blanks = [i for i in range(filled[-1]) if not lines[i].strip()]
        if blanks:
            lines = lines[: blanks[-1]]
    return " ".join(" ".join(lines).split())


def checksum_verdicts(keys, threshold: int) -> list[str]:
    """SPAM for a message once its key was seen threshold times before."""
    seen: Counter = Counter()
    verdicts = []
    for key in keys:
        verdicts.append(SPAM if seen[key] >= threshold else HAM)
        seen[key] += 1
    return verdicts


def volume_verdicts(log_lines, window: int, threshold: int) -> list[str]:
    """SPAM for a log line whose host has more than threshold lines among
    the window lines before it."""
    positions: dict[str, list[int]] = {}
    verdicts = []
    for i, line in enumerate(log_lines):
        host = line.split("\t")[1]
        seen = positions.setdefault(host, [])
        count = len(seen) - bisect.bisect_left(seen, i - window)
        verdicts.append(SPAM if count > threshold else HAM)
        seen.append(i)
    return verdicts


# --- external wrappers ---------------------------------------------------------


def marker_verdict(body: str, marker: str) -> str:
    """The rule of sh/marker_filter.sh."""
    padded = f" {marker} "
    return SPAM if any(padded in f" {line} " for line in body.split("\n")) else HAM


def sender_verdict(from_addr: str, domain: str) -> str:
    """The rule of sh/sender_filter.sh."""
    return SPAM if from_addr.endswith("@" + domain) else HAM


# --- reports -------------------------------------------------------------------


def expected_results_csv(rows) -> str:
    """results.csv for rows of (filter, level, counts dict), ranked by
    wrongness (FRR + eps)^2 (FAR + eps), ties by name."""

    def fmt(x):
        return "" if x is None else format(x, ".10g")

    scored = []
    for name, level, c in rows:
        n_spam, n_ham = c["ss"] + c["sh"], c["hs"] + c["hh"]
        far = c["sh"] / n_spam if n_spam else None
        frr = c["hs"] / n_ham if n_ham else None
        w = None if far is None or frr is None else (frr + EPSILON) ** 2 * (far + EPSILON)
        scored.append((w is None, w or 0.0, name, level, n_spam, n_ham, c, frr, far, w))
    scored.sort(key=lambda r: r[:3])
    lines = ["filter,level,n_spam,n_ham,ss,sh,hs,hh,wrapper_errors,frr,far,wrongness"]
    for _, _, name, level, n_spam, n_ham, c, frr, far, w in scored:
        lines.append(
            f"{name},{level},{n_spam},{n_ham},{c['ss']},{c['sh']},{c['hs']},{c['hh']},0,"
            f"{fmt(frr)},{fmt(far)},{fmt(w)}"
        )
    return "".join(line + "\r\n" for line in lines)


def _counts(truths, verdicts) -> dict:
    c = {"ss": 0, "sh": 0, "hs": 0, "hh": 0}
    for truth, verdict in zip(truths, verdicts):
        c[truth[0] + verdict[0]] += 1
    return c


# --- the whole check -------------------------------------------------------------


def regenerate(spamlab, inp: inputs.Inputs, workload: inputs.Workload, sim: dict):
    """(training messages, evaluation messages with log entries)."""
    scenario = workload.scenario

    def flag(key):
        return scenario.get(key, "false") == "true"

    ham = [
        spamlab.Corpus(topic, tuple(bodies), str(inp.root / "corpora" / "ham" / topic))
        for topic, bodies in sorted(inp.ham.items())
    ]
    spam = spamlab.Corpus("spam", tuple(inp.spam), str(inp.root / "corpora" / "spam"))
    rng = random.Random(sim["seed"])
    world = spamlab.World(
        spamlab.SimConfig(**sim), ham, spam, rng,
        personalize_spam=flag("personalized"),
        bogus_headers=flag("bogus_headers"),
        random_words=flag("random_words"),
    )
    training = [m for _ in range(scenario["training_steps"]) for m, _ in spamlab.step(world, rng)]
    evaluation = [pair for _ in range(scenario["eval_steps"]) for pair in spamlab.step(world, rng)]
    return training, evaluation


def check_run(spamlab, inp, workload, sim: dict, out: Path) -> None:
    """Check one run directory against the recomputation; raise
    OracleMismatch on any difference."""
    training, evaluation = regenerate(spamlab, inp, workload, sim)
    log_lines = (out / "connections.log").read_text(encoding="utf-8").split("\n")
    if log_lines[-1] != "":
        raise OracleMismatch("connections.log does not end with a newline")
    log_lines.pop()
    expected_log = [
        f"{e.step}\t{e.origin_host}\t{e.sender_addr}\t{e.recipient_count}" for _, e in evaluation
    ]
    if log_lines != expected_log:
        first = next(
            (i for i, (a, b) in enumerate(zip(log_lines, expected_log)) if a != b),
            min(len(log_lines), len(expected_log)),
        )
        raise OracleMismatch(
            f"connections.log differs from the regenerated stream at line {first + 1}"
            f" ({len(log_lines)} lines, {len(expected_log)} expected)"
        )
    messages = [m for m, _ in evaluation]
    truths = [m.truth.value for m in messages]

    spam_weight = sum(int(line.rsplit("\t", 1)[1]) for line, t in zip(log_lines, truths) if t == SPAM)
    all_weight = sum(int(line.rsplit("\t", 1)[1]) for line in log_lines)
    share = spam_weight / all_weight
    target = sim["target_spam_fraction"]
    if abs(share - target) > SHARE_TOLERANCE:
        raise OracleMismatch(
            f"spam share {share:.4f} is more than {SHARE_TOLERANCE} from target {target}"
        )

    rows = []
    for entry in workload.scenario["filters"].split(";"):
        name, level = entry.split()
        verdicts = _verdicts(name, level, training, messages, log_lines)
        rows.append((name, level, _counts(truths, verdicts)))
    expected = expected_results_csv(rows)
    got = (out / "results.csv").read_bytes()
    if got != expected.encode("utf-8"):
        raise OracleMismatch(
            f"results.csv differs:\n--- got\n{got.decode(errors='replace')}"
            f"--- expected\n{expected}"
        )

    if workload.external:
        n_ham = sum(m.truth.value == HAM for m in training)
        state = inp.trainer_state.read_text(encoding="utf-8")
        want = f"ham {n_ham}\nspam {len(training) - n_ham}\n"
        if state != want:
            raise OracleMismatch(f"trainer state {state!r}, expected {want!r}")


def _verdicts(name, level, training, messages, log_lines) -> list[str]:
    if name == "pass-all":
        return [HAM] * len(messages)
    if name == "block-all":
        return [SPAM] * len(messages)
    if name == "volume":
        return volume_verdicts(log_lines, inputs.VOLUME_WINDOW, inputs.VOLUME_THRESHOLD)
    if name == "checksum":
        return checksum_verdicts([m.body for m in messages], inputs.CHECKSUM_THRESHOLD)
    if name == "checksum-fuzzy":
        return checksum_verdicts(
            [fuzzy_normal(m.body) for m in messages], inputs.CHECKSUM_THRESHOLD
        )
    if name == "marker":
        return [marker_verdict(m.body, inputs.MARKER) for m in messages]
    if name == "sender":
        return [sender_verdict(m.from_addr, inputs.SPAM_SENDER_DOMAIN) for m in messages]
    if name == "bayes":
        return _bayes_verdicts(level, training, messages)
    raise ValueError(f"no oracle for filter {name!r}")


def _bayes_verdicts(level, training, messages) -> list[str]:
    general = BayesCounts()
    per_user: dict[str, BayesCounts] = {}
    for m in training:
        subject, body = tokenize(m.subject), tokenize(m.body)
        general.add(m.truth.value, subject, body)
        if level == "U":
            for addr in m.recipients:
                per_user.setdefault(addr, BayesCounts()).add(m.truth.value, subject, body)
    models = {
        addr: model
        for addr, model in per_user.items()
        if min(model.messages.values()) >= inputs.BAYES_MIN_USER_MESSAGES
    }
    return [
        models.get(m.recipients[0], general).classify(
            m.subject, m.body, inputs.BAYES_N, inputs.BAYES_THRESHOLD
        )
        for m in messages
    ]
