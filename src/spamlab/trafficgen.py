"""Simulated email traffic generation.

Normal users draw bodies from topic-grouped corpora and send to
normally-distributed neighbours. Mailing lists and spammers are bulk
senders with one run rule: a run sends one body through the sender's
database, one delivery per step for a list and burst_rate per step for a
spammer; spam is optionally personalized, given forged Received headers,
or appended random dictionary words. Every emitted message carries a
connection-log entry, and a fixed seed reproduces the stream bit for bit.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import asdict, dataclass, replace
from itertools import accumulate, repeat, starmap
from pathlib import Path
from typing import get_type_hints

from .corpus import Corpus, Label, Message, tokenize
from .errors import ConfigInvalid, IoFailure

# bound on sigma and recipients_mean: far past it normal draws overflow
# and 1 - 1/recipients_mean rounds to 1
SIM_SCALE_MAX = 1e12

# draws in a row that add no recipient before select_recipients gives up (~1 s)
REDRAW_LIMIT = 1_000_000

# calibration bisects until the pilot is within half the tolerance
CALIBRATION_TOLERANCE = 0.02
CALIBRATION_STEPS = 26
# random() draws a calibration pilot parse makes at a time
_PILOT_CHUNK = 1 << 12

# Recipients of one non-personalized spam delivery batch share one message
# via Bcc; personalized spam is one message per recipient.
BCC_BATCH_SIZE = 50

_SUBJECT_MAX = 60
_FAKE_DOMAINS = (
    "mail-hub.example.com",
    "relay.fastmail.example",
    "smtp.zone.example.org",
    "mx.bulkpost.example.net",
)


@dataclass(frozen=True)
class SimConfig:
    """Traffic topology and rate knobs; read from a key = value file. It
    is checked when made: each field but seed is in its RANGES entry, sigma > 0."""

    RANGES = {"n_users": (2, None), "n_mailing_lists": (0, None), "n_spammers": (0, None),
              "sigma": (0, SIM_SCALE_MAX), "steps": (1, None), "target_spam_fraction": (0, 1),
              "recipients_mean": (0, SIM_SCALE_MAX), "send_prob": (0, 1),
              "activation_prob": (0, 1), "burst_rate": (1, None), "spammer_db_size": (0, None)}

    n_users: int = 500
    n_mailing_lists: int = 5
    n_spammers: int = 10
    sigma: float = 10.0
    seed: int = 0
    steps: int = 1000
    target_spam_fraction: float = 0.4
    recipients_mean: float = 1.3
    send_prob: float = 0.1
    activation_prob: float = 0.05
    burst_rate: int = 50
    spammer_db_size: int = 20

    def __post_init__(self):
        check_ranges(self)
        if self.sigma <= 0:
            raise ConfigInvalid(f"sigma = {self.sigma!r} must be > 0")

    # Derived from the fields; World and the calibration pilot both read them.
    # Not cached: a value stored in the instance __dict__ makes every field
    # read slower (CPython 3.11), and _step_user reads fields per user.

    @property
    def n_subscribers(self) -> int:
        """Subscribers of each mailing list."""
        return min(self.n_users, max(5, self.n_users // 10))

    @property
    def n_targets(self) -> int:
        """Addresses in each spammer's database."""
        return min(self.n_users, self.spammer_db_size)

    @property
    def recipients_p(self) -> float:
        """p of a user send's geometric recipient count (mean 1/p)."""
        return 1.0 / max(self.recipients_mean, 1.0)


def parse_kv(path) -> dict[str, str]:
    """Parse a "key = value" config file; '#' lines are comments, and no key repeats."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}") from exc
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigInvalid(f"{path}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in values:
            raise ConfigInvalid(f"{path}: repeated key {key!r}")
        values[key] = value.strip()
    return values


_BOOL_TEXT = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def parse_value(where, key: str, text: str, kind: type):
    """Convert one config value to kind (int, float or bool).

    Bools are spelled 1/true/yes/on or 0/false/no/off, in any case, and
    floats must be finite (no nan or inf). Raises ConfigInvalid naming
    where and key when text does not convert.
    """
    try:
        value = _BOOL_TEXT[text.strip().lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        expected = "/".join(_BOOL_TEXT) if kind is bool else f"a valid {kind.__name__}"
        raise ConfigInvalid(f"{where}: {key} = {text!r} is not {expected}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigInvalid(f"{where}: {key} = {text!r} is not a finite float")
    return value


def check_range(where, key: str, value, low, high=None) -> None:
    """The range rule of every config value: finite, then in [low, high] (or
    >= low when high is None); raises "[<where>: ]<key> = <value> must be <rule>"."""
    if isinstance(value, float) and not math.isfinite(value):
        rule = "finite"
    elif value < low or (high is not None and value > high):
        rule = f">= {low:g}" if high is None else f"in [{low:g}, {high:g}]"
    else:
        return
    prefix = "" if where is None else f"{where}: "
    raise ConfigInvalid(f"{prefix}{key} = {value!r} must be {rule}")


def check_ranges(config) -> None:
    """Check each field that config's RANGES declares (a dataclass's rule)."""
    for key, (low, high) in config.RANGES.items():
        check_range(None, key, getattr(config, key), low, high)


def read_config(path, cls, values: dict[str, str], **made):
    """Make a cls from the fields in made and a config file's values, each
    converted by parse_value to its field's type hint; every error names path."""
    kinds = get_type_hints(cls)
    for key, text in values.items():
        if key not in kinds:
            raise ConfigInvalid(f"{path}: unknown key {key!r}")
        made[key] = parse_value(path, key, text, kinds[key])
    try:
        return cls(**made)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc}") from None


def load_sim_config(path) -> SimConfig:
    """Load a SimConfig from a key = value file."""
    return read_config(path, SimConfig, parse_kv(path))


def write_sim_config(config: SimConfig, path) -> None:
    """Write config in the key = value format load_sim_config reads."""
    text = "".join(f"{k} = {v}\n" for k, v in asdict(config).items())
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class ConnectionLogEntry:
    """One simulated server-log line."""

    step: int
    origin_host: str
    sender_addr: str
    recipient_count: int

    def as_line(self) -> str:
        return (
            f"{self.step}\t{self.origin_host}\t{self.sender_addr}"
            f"\t{self.recipient_count}"
        )


@dataclass
class NormalUser:
    index: int
    address: str
    host: str
    bodies: tuple[str, ...]
    body_cursor: int = 0


@dataclass
class BulkSender:
    """A mailing list (its ham corpus's bodies, its subscribers) or a spammer
    (the spam bodies, its address database). It is idle while current_body
    is None; in a run, cursor counts the recipients already sent to."""

    address: str
    host: str
    bodies: tuple[str, ...]
    recipients: tuple[str, ...] = ()
    cursor: int = 0
    current_body: str | None = None
    body_cursor: int = 0


def _round_away(x: float) -> int:
    # round half away from zero
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def select_recipients(sender_index, n_users, sigma, k, rng) -> list[int]:
    """Pick k distinct recipient indices near the sender.

    Each draw is (sender_index + round(o)) mod n_users with o from
    Normal(0, sigma^2); draws that land on the sender or on an already
    selected index are redrawn. ConfigInvalid ends a pick after REDRAW_LIMIT
    draws in a row add no recipient, as they never can for k >= n_users.
    """
    chosen: list[int] = []
    taken = {sender_index}
    misses = 0
    while len(chosen) < k:
        offset = _round_away(rng.normalvariate(0.0, sigma))
        idx = (sender_index + offset) % n_users
        if idx in taken:
            misses += 1
            if misses == REDRAW_LIMIT:
                raise ConfigInvalid(f"sigma = {sigma!r} cannot reach k = {k} distinct"
                                    f" recipients of n_users = {n_users}")
            continue
        misses = 0
        taken.add(idx)
        chosen.append(idx)
    return chosen


def personalize(body: str, recipient: str) -> str:
    """Prepend "Dear <login>,\\n" for the recipient's local part; raise
    ValueError if the address has no '@'."""
    login, sep, _ = recipient.partition("@")
    if not sep:
        raise ValueError(recipient)
    return f"Dear {login},\n{body}"


def _randbelow(getrandbits, n: int) -> int:
    """The draw rng.choice, rng.randrange and rng.randint make for n values:
    k random bits for n values, drawn again while they read n or more."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _forged_received(count: int, rng) -> tuple[str, ...]:
    """count forged Received: entries, drawn as rng.randrange and
    rng.choice would draw them (_randbelow)."""
    getrandbits, domains = rng.getrandbits, _FAKE_DOMAINS
    return tuple(
        f"from mx{_randbelow(getrandbits, 10000)}"
        f".{domains[_randbelow(getrandbits, len(domains))]}"
        f" by {domains[_randbelow(getrandbits, len(domains))]}"
        f"; t{_randbelow(getrandbits, 86400):05d}"
        for _ in range(count)
    )


def add_random_words(body: str, dictionary, count: int, rng) -> str:
    """Append a paragraph of count dictionary words after a blank line.

    Each word is the one rng.choice(dictionary) would pick (_randbelow).
    """
    if count == 0:
        return body
    if not dictionary:
        raise ConfigInvalid("random-word injection needs a dictionary")
    n, getrandbits = len(dictionary), rng.getrandbits
    words = [dictionary[_randbelow(getrandbits, n)] for _ in range(count)]
    return body + "\n\n" + " ".join(words)


def _geometric(rng, p: float) -> int:
    # inverse-CDF draw on {1, 2, ...} with mean 1/p
    if p >= 1.0:
        return 1
    return int(math.log(1.0 - rng.random()) / math.log(1.0 - p)) + 1


class World:
    """Mutable simulation state: sender profiles, corpora, and counters.

    Senders hold only their own state. The run-wide settings live here:
    the rates in config, and the three spam options (personalize_spam,
    bogus_headers, random_words) as attributes. Single-owner; advance with
    step(world, rng). Parallel runs should use independent worlds and
    independent rngs.
    """

    def __init__(
        self,
        config: SimConfig,
        ham_corpora: list[Corpus],
        spam_corpus: Corpus | None,
        rng,
        *,
        personalize_spam: bool = False,
        bogus_headers: bool = False,
        random_words: bool = False,
    ):
        if not ham_corpora:
            raise ConfigInvalid("at least one ham corpus is required")
        if config.n_spammers > 0 and spam_corpus is None:
            raise ConfigInvalid("spammers configured but no spam corpus given")
        self.config = config
        self.recipients_p = config.recipients_p  # _step_user reads it on every send
        self.personalize_spam = personalize_spam
        self.bogus_headers = bogus_headers
        self.random_words = random_words
        self.step_no = 0
        self.msg_seq = 0

        addresses = [f"user{i}@example.org" for i in range(config.n_users)]
        self.users = [
            NormalUser(
                index=i,
                address=addresses[i],
                host=f"host{i}.client.example",
                bodies=rng.choice(ham_corpora).bodies,
                body_cursor=i,
            )
            for i in range(config.n_users)
        ]
        self.mailing_lists = [
            BulkSender(
                address=f"list{j}@lists.example.org",
                host=f"list{j}.lists.example",
                bodies=rng.choice(ham_corpora).bodies,
                recipients=tuple(rng.sample(addresses, config.n_subscribers)),
                body_cursor=j,
            )
            for j in range(config.n_mailing_lists)
        ]
        self.spammers = [
            BulkSender(
                address=f"deals{k}@bulkmail.example.net",
                host=f"relay{k}.open.example",
                bodies=spam_corpus.bodies,
                recipients=tuple(rng.sample(addresses, config.n_targets)),
            )
            for k in range(config.n_spammers)
        ]
        self.dictionary: list[str] = []
        if random_words:
            seen = set()
            for c in ham_corpora:
                for body in c.bodies:
                    seen.update(tokenize(body))
            self.dictionary = sorted(seen)[:2000]


def _subject_for(body: str) -> str:
    for line in body.split("\n"):
        line = " ".join(line.split())
        if line:
            return line[:_SUBJECT_MAX]
    return "(no subject)"


def _emit(world, out, sender, body, to, cc, bcc, truth, forged=()):
    """Build a message, with the forged Received: entries before the real
    one, and append it to out with its log entry. Draws nothing from the
    rng."""
    world.msg_seq += 1
    seq, step_no, host = world.msg_seq, world.step_no, sender.host
    received = f"from {host} by mx.example.org; step {step_no} seq {seq}"
    m = Message(
        from_addr=sender.address,
        to_addrs=tuple(to),
        cc_addrs=tuple(cc),
        bcc_addrs=tuple(bcc),
        subject=_subject_for(body),
        message_id=f"<{seq}.{step_no}@{host}>",
        received_headers=forged + (received,),
        body=body,
        truth=truth,
        origin_host=host,
        step=step_no,
    )
    entry = ConnectionLogEntry(step_no, host, sender.address, len(m.recipients))
    out.append((m, entry))


def _step_user(world, out, user, rng):
    config = world.config
    if rng.random() >= config.send_prob:
        return
    k = max(1, min(_geometric(rng, world.recipients_p), config.n_users - 1))
    indices = select_recipients(user.index, config.n_users, config.sigma, k, rng)
    to, cc, bcc = [], [], []
    fields, getrandbits = (to, cc, bcc), rng.getrandbits
    for idx in indices:
        fields[_randbelow(getrandbits, 3)].append(world.users[idx].address)
    bodies = user.bodies
    body = bodies[user.body_cursor % len(bodies)]
    user.body_cursor += 1
    _emit(world, out, user, body, to, cc, bcc, Label.HAM)


def _bulk_run(sender, rng, p, size):
    """The run rule of a bulk sender, for one step. While idle, one draw
    against p starts a run, unless the sender has no recipients; the run
    takes the next body, each step sends it to the next size recipients,
    and the sender is idle again once its database is done. Returns this
    step's (body, recipients), or None while the sender is idle."""
    body = sender.current_body
    if body is None:
        if rng.random() >= p or not sender.recipients:
            return None
        body = sender.bodies[sender.body_cursor % len(sender.bodies)]
        sender.current_body, sender.cursor = body, 0
        sender.body_cursor += 1
    start, recipients = sender.cursor, sender.recipients
    chunk = recipients[start : start + size]
    sender.cursor = start + len(chunk)
    if sender.cursor >= len(recipients):
        sender.current_body = None
    return body, chunk


def _step_spammer(world, out, sp, payload, chunk, rng):
    """Send one step's chunk of a spam run: one message per recipient when
    personalized, else Bcc batches of up to BCC_BATCH_SIZE."""
    personal = world.personalize_spam
    size = 1 if personal else BCC_BATCH_SIZE
    getrandbits = rng.getrandbits
    for i in range(0, len(chunk), size):
        batch = chunk[i : i + size]
        body = payload
        if personal:
            body = personalize(body, batch[0])
        # 10 + _randbelow(.., 21) is rng.randint(10, 30), 1 + .. is randint(1, 3)
        if world.random_words:
            n_words = 10 + _randbelow(getrandbits, 21)
            body = add_random_words(body, world.dictionary, n_words, rng)
        forged = ()
        if world.bogus_headers:
            forged = _forged_received(1 + _randbelow(getrandbits, 3), rng)
        to, bcc = (batch, ()) if personal else ((), batch)
        _emit(world, out, sp, body, to, (), bcc, Label.SPAM, forged)


def step(world: World, rng) -> list[tuple[Message, ConnectionLogEntry]]:
    """Advance the simulation by one step.

    Senders are visited in order (users, then mailing lists, then
    spammers); each emitted message is paired with its connection-log
    entry.
    """
    config = world.config
    out: list[tuple[Message, ConnectionLogEntry]] = []
    for user in world.users:
        _step_user(world, out, user, rng)
    for ml in world.mailing_lists:
        if run := _bulk_run(ml, rng, config.send_prob, 1):
            _emit(world, out, ml, *run, (), (), Label.HAM)
    for sp in world.spammers:
        if run := _bulk_run(sp, rng, config.activation_prob, config.burst_rate):
            _step_spammer(world, out, sp, *run, rng)
    world.step_no += 1
    return out


def measure_spam_fraction(messages) -> float:
    """Recipient-weighted spam share of a message stream.

    Weighting by recipients reflects what lands in mailboxes: one Bcc
    delivery batch to 50 targets counts 50, the same as 50 personalized
    copies of it.
    """
    spam = ham = 0
    for m in messages:
        if m.truth is Label.SPAM:
            spam += len(m.recipients)
        else:
            ham += len(m.recipients)
    if spam + ham == 0:
        return 0.0
    return spam / (spam + ham)


class _PilotDraws:
    """One pilot seed's random() draws, made once and parsed as user slots.

    A user slot is one user's turn in a pilot step: one draw, and when it
    is below send_prob (a send slot) and recipients_mean > 1, the next draw
    as well, for the geometric recipient count. The parse reads the draws
    as a run of user slots from draw 0 and records, for each send slot, its
    draw index (send_at), its slot index (send_slot) and the running total
    of the clamped recipient counts (ham[m] sums the first m send slots).
    It depends on the config but not on activation_prob, so every pilot of
    one calibration reuses it.

    The parse is made up front, _PILOT_CHUNK draws at a time, and covers
    the steps * (n_users + n_mailing_lists + n_spammers) slots a pilot of
    `steps` steps can reach. A pilot's position, counted in slots, plus 1
    while it is on a send slot's geometric draw, grows by at most 1 per
    user turn and per list or spammer draw.
    """

    def __init__(self, config: SimConfig, seed: int, steps: int):
        self.config, self.steps = config, steps
        p = config.recipients_p
        # _geometric(rng, p) inlined: the same draws, with log(1 - p) taken once
        self.log_q = math.log(1.0 - p) if p < 1.0 else None
        self.wide = wide = 0 if self.log_q is None else 1  # a send slot's geometric draw
        reach = steps * (config.n_users + config.n_mailing_lists + config.n_spammers)
        draw, send_prob = random.Random(seed).random, config.send_prob
        self.draws = draws = array("d")
        self.send_at = send_at = array("q")
        slot_start = 0  # the draw index of the next slot; past the draws
        # when the last one made starts a send slot
        while slot_start - len(send_at) * wide < reach or slot_start > len(draws):
            made = list(starmap(draw, repeat((), _PILOT_CHUNK)))
            base = len(draws)
            draws.fromlist(made)
            for i in [i for i, d in enumerate(made, base) if d < send_prob]:
                if i >= slot_start:  # else the geometric draw of the slot before
                    send_at.append(i)
                    slot_start = i + 1 + wide
            slot_start = max(slot_start, len(draws))
        if wide:
            self.send_slot = array("q", (i - m for m, i in enumerate(send_at)))
            counts = self.recipients(draws[i + 1] for i in send_at)
        else:  # with one-draw slots, a slot's index is its draw index
            self.send_slot, counts = send_at, repeat(1, len(send_at))
        self.ham = array("q", accumulate(counts, initial=0))

    def recipients(self, geometric_draws) -> list[int]:
        """The clamped recipient counts of send slots with these geometric
        draws: max(1, min(n, n_users - 1)), as n >= 1."""
        log, log_q, most = math.log, self.log_q, max(1, self.config.n_users - 1)
        return [min(int(log(1.0 - d) / log_q) + 1, most) for d in geometric_draws]

    def walk(self, pos: int, n: int) -> tuple[int, int]:
        """Walk n user slots from draw index pos; return the ham deliveries
        they make and the draw index after them.

        A walk that starts on the geometric draw of a send slot is off the
        parse: it steps slot by slot until it lands on a slot start of the
        parse, which it does at its first draw not below send_prob. From
        there it jumps the remaining slots with two bisections.
        """
        sent, wide, send_at = 0, self.wide, self.send_at
        k = bisect_left(send_at, pos)
        if wide and k and send_at[k - 1] == pos - 1:
            draws, send_prob, off = self.draws, self.config.send_prob, True
            while off and n:
                n -= 1
                if draws[pos] >= send_prob:
                    pos, off = pos + 1, False
                else:
                    sent += self.recipients((draws[pos + 1],))[0]
                    pos += 2
                    off = draws[pos - 1] < send_prob  # a send slot of the parse
            if off:
                return sent, pos
            k = bisect_left(send_at, pos)
        target = pos - k * wide + n  # the slot index after the walk
        j = bisect_left(self.send_slot, target)
        return sent + self.ham[j] - self.ham[k], target + j * wide


def _pilot(draws: _PilotDraws, multiplier: float) -> float:
    """Dry-run estimate of the recipient-weighted spam fraction over one
    seed's parsed draws, for draws.steps steps.

    Mirrors the run rules of step() while counting deliveries
    only, so calibration pilots cost no message construction. It replays
    exactly the per-draw dry run over random.Random(seed).random (one draw
    per user and per idle sender, plus each user send's geometric draw),
    but jumps through each step's users on the parse. calibrate_spam_fraction
    makes that parse once per pilot seed and reuses it for every multiplier.
    """
    config = draws.config
    activation = min(1.0, config.activation_prob * multiplier)
    values, n_users = draws.draws, config.n_users
    # (p, size, database, is spam) of each bulk sender, in step() order;
    # a run over an empty database sends nothing, as step() starts none
    senders = ([(config.send_prob, 1, config.n_subscribers, False)] * config.n_mailing_lists
               + [(activation, config.burst_rate, config.n_targets, True)] * config.n_spammers)
    remaining = [0] * len(senders)  # > 0 while the sender is in a run
    ham = spam = pos = 0
    for _ in range(draws.steps):
        user_ham, pos = draws.walk(pos, n_users)
        ham += user_ham
        for i, (p, size, database, is_spam) in enumerate(senders):
            left = remaining[i]
            if left == 0:
                pos += 1
                if values[pos - 1] >= p:
                    continue
                left = database
            sent = size if size < left else left
            remaining[i] = left - sent
            if is_spam:
                spam += sent
            else:
                ham += sent
    if ham + spam == 0:
        return 0.0
    return spam / (ham + spam)


def calibrate_spam_fraction(config: SimConfig) -> SimConfig:
    """Adjust spammer activation probability to hit the target fraction.

    Runs seeded dry-run pilots of exactly config.steps steps and bisects
    a global multiplier on activation_prob until the pilot's
    recipient-weighted spam fraction is within CALIBRATION_TOLERANCE / 2
    of target_spam_fraction, for at most CALIBRATION_STEPS steps. Raises
    ConfigInvalid when the target exceeds what permanently-active
    spammers can produce.

    Each multiplier is measured by three pilots, one per pilot seed. Each
    pilot seed's draws are made and parsed once per calibration, up front
    (_PilotDraws), and every pilot reuses that parse, yet replays the
    per-draw dry run exactly, so the calibrated values are the ones a
    pilot that draws afresh for each multiplier gives.
    """
    target = config.target_spam_fraction
    if config.n_spammers == 0 or config.spammer_db_size == 0:
        if target == 0.0:
            return config
        raise ConfigInvalid("no spammers configured")
    if target == 0.0:
        return replace(config, activation_prob=0.0)
    if config.activation_prob <= 0:
        raise ConfigInvalid("activation_prob must be > 0 to calibrate")

    pilot_seed = config.seed * 1_000_003 + 17
    hi = 1.0 / config.activation_prob  # multiplier that saturates at 1.0
    seed_draws = [_PilotDraws(config, pilot_seed + salt, config.steps) for salt in (0, 1, 2)]

    def fraction_at(multiplier: float) -> float:
        # averaged over fixed pilot seeds: spam arrives in bursts, so a
        # single pilot's fraction estimate is too noisy to bisect on
        estimates = [_pilot(draws, multiplier) for draws in seed_draws]
        return sum(estimates) / len(estimates)

    ceiling = fraction_at(hi)
    if ceiling + CALIBRATION_TOLERANCE < target:
        raise ConfigInvalid(
            f"target {target:.3f} unreachable: ceiling at full activation"
            f" is {ceiling:.3f}"
        )
    lo = 0.0
    best = hi
    best_err = abs(ceiling - target)
    for _ in range(CALIBRATION_STEPS):
        mid = (lo + hi) / 2.0
        f = fraction_at(mid)
        err = abs(f - target)
        if err < best_err:
            best, best_err = mid, err
        if err <= CALIBRATION_TOLERANCE / 2.0:
            best = mid
            break
        if f < target:
            lo = mid
        else:
            hi = mid
    return replace(
        config, activation_prob=min(1.0, config.activation_prob * best)
    )
