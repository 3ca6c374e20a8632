"""Filter abstraction: builtin filters, the external wrapper protocol, the
trainer protocol, and training-set emission.

External filters are arbitrary commands that read one rendered message on
stdin and print one line "spam" or "ham" (case-insensitive), optionally
followed by a score. Server-level filters find the connection-log path in
the SPAMLAB_CONNLOG environment variable. Trainers are commands invoked
with the ham and spam mbox paths as their two arguments.
"""

from __future__ import annotations

import os
import shlex
import subprocess
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from . import bayes, bulk
from .corpus import Label, Message, Verdict, render_message, write_mbox
from .errors import ConfigInvalid, IoFailure, TrainerFailed, WrapperCrashed
from .memo import Memo
from .trafficgen import check_range, parse_value

CONNLOG_ENV_VAR = "SPAMLAB_CONNLOG"


class Level(Enum):
    """Deployment level of a filter."""

    USER = "U"
    SERVER = "S"


def split_command(where: str, key: str, text: str) -> list[str]:
    """Split a command line into its argv; raise ConfigInvalid naming key
    when the text has an unclosed quote or no words."""
    try:
        argv = shlex.split(text)
    except ValueError as exc:
        raise ConfigInvalid(f"{where}: {key} = {text!r}: {exc}") from exc
    if not argv:
        raise ConfigInvalid(f"{where}: {key} is empty")
    return argv


@dataclass(frozen=True)
class FilterBinding:
    """How one filter participates in an evaluation run.

    A binding checks its rules when it is made and raises ConfigInvalid,
    naming the config key, for the first one it breaks:
    - exactly one of builtin/command is set;
    - needs_connection_log implies SERVER level: user-level filters never
      see the log;
    - each command splits into a non-empty argv;
    - the builtin is one of BUILTIN_FILTERS;
    - volume runs at SERVER level;
    - a builtin runs no trainer command and reads no log;
    - each option is one its filter class declares, and its text converts
      to a value in the declared range.
    """

    name: str
    level: Level
    builtin: str | None = None
    command: str | None = None
    trainer_command: str | None = None
    needs_connection_log: bool = False
    # option name -> its config text, e.g. {"threshold": "0.9"}
    options: Mapping[str, str] = field(default_factory=dict, hash=False)
    # set by the checks, for build_filter: argvs (None if unset), option values
    argv: tuple[str, ...] | None = field(init=False, compare=False, repr=False)
    trainer_argv: tuple[str, ...] | None = field(init=False, compare=False, repr=False)
    option_values: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        name, where = self.name, f"filter {self.name}"
        if (self.builtin is None) == (self.command is None):
            raise ConfigInvalid(f"{where}: needs exactly one of builtin or command")
        if self.needs_connection_log and self.level is not Level.SERVER:
            raise ConfigInvalid(f"{where}: connlog.{name} needs level S")
        for attr, key, text in (
            ("argv", f"external.{name}", self.command),
            ("trainer_argv", f"trainer.{name}", self.trainer_command),
        ):
            argv = None if text is None else tuple(split_command(where, key, text))
            object.__setattr__(self, attr, argv)
        if self.builtin is not None and self.builtin not in BUILTIN_FILTERS:
            raise ConfigInvalid(f"{where}: not a builtin and no external.{name} command")
        if self.builtin == "volume" and self.level is not Level.SERVER:
            raise ConfigInvalid(f"{where}: volume needs level S")
        if self.builtin is not None and (
            self.trainer_command is not None or self.needs_connection_log
        ):
            unused = "trainer" if self.trainer_command is not None else "connlog"
            raise ConfigInvalid(f"{where}: {unused}.{name} is for external filters only")
        # each option converts as its OPTIONS entry (type, lowest, highest) says
        declared = BUILTIN_FILTERS[self.builtin][0].OPTIONS if self.builtin else {}
        values = {}
        for option, text in self.options.items():
            key = f"{name}.{option}"
            if option not in declared:
                raise ConfigInvalid(f"{where}: unknown option {key}")
            kind, low, high = declared[option]
            values[option] = parse_value(where, key, text, kind)
            check_range(where, key, values[option], low, high)
        object.__setattr__(self, "option_values", values)

    @property
    def needs_training(self) -> bool:
        """Builtin Bayes and external filters with a trainer take training."""
        return self.builtin == "bayes" or self.trainer_command is not None


class BayesFilterState:
    """Builtin Bayes filter: a general model plus optional per-user models.

    A mailbox gets its own model only once it has seen at least
    min_user_messages of each class in training; thinner mailboxes stay on
    the general model, whose vocabulary coverage is far better. The
    per-user models count a text that two or more of their mailboxes got
    once, in one index they share, and each keeps how often its mailbox
    got such a text per class; a text that one mailbox got is counted into
    that mailbox's own counts. All models and classification share one
    TokenMemo, so the filter tokenizes a text at most twice in its run,
    however many models read it. The filter keeps the verdicts that recur
    in one Memo, keyed by the deciding mailbox (None for the general
    model) and the text, so it classifies a text at most twice per model.
    A filter is trained once: its memo is never cleared.
    """

    OPTIONS = {"n": (int, 1, None), "threshold": (float, 0, 1),
               "min_user_messages": (int, 0, None)}

    def __init__(
        self,
        binding: FilterBinding,
        n: int = bayes.DEFAULT_N_INTERESTING,
        threshold: float = bayes.DEFAULT_THRESHOLD,
        min_user_messages: int = 5,
    ):
        self.binding = binding
        self.n = n
        self.threshold = threshold
        self.min_user_messages = min_user_messages
        self.model = None
        self.user_models: dict[str, bayes.BayesModel] = {}
        self.tokens = bayes.TokenMemo()
        # (owner, Text) -> Verdict; bayes.bayes_classify is looked up at
        # each call, so a patch on it sees every verdict computed
        self.verdicts = Memo(lambda key: bayes.bayes_classify(
            self.user_models.get(key[0], self.model), key[1], self.tokens
        ))

    def train(self, ham, spam, stream) -> None:
        """Train the general model from the ham and spam mboxes and, at
        user level, the per-mailbox models from the stream they hold."""
        self.model = bayes.train_bayes(
            ham, spam, self.n, self.threshold, self.tokens
        )
        if self.binding.level is Level.USER:
            self.train_user_models(stream)

    def train_user_models(self, stream) -> None:
        """Give each mailbox with min_user_messages of each class in the
        training stream a model trained on the mail delivered to it.

        The models count each text (subject and body) that two or more of
        them got once, in one index shared by this filter's models, and
        each mailbox keeps how often it got such a text per class; a text
        that one mailbox got is counted into that mailbox's own counts
        (see bayes.train_mailboxes). Every count equals the one
        bayes.train_messages gives on the mailbox's mail."""
        delivered: dict[str, tuple[list, list]] = {}
        for m in stream:
            for addr in m.recipients:
                ham, spam = delivered.setdefault(addr, ([], []))
                (spam if m.truth is Label.SPAM else ham).append(m)
        floor = max(self.min_user_messages, 1)
        self.user_models.update(bayes.train_mailboxes(
            {addr: sides for addr, sides in delivered.items()
             if min(map(len, sides)) >= floor},
            self.n, self.threshold, self.tokens,
        ))

    def classify(self, m: Message) -> Verdict:
        if self.model is None:
            raise TrainerFailed(f"{self.binding.name}: classify before train")
        # user-level deployment: the first recipient's mailbox filter, if
        # the mailbox has one; None stands for the general model
        owner = m.recipients[0]
        if owner not in self.user_models:
            owner = None
        return self.verdicts((owner, bayes.Text(m.subject, m.body)))


class VolumeFilterState:
    """Builtin volume filter over its own view of the connection stream."""

    OPTIONS = {"window": (int, 1, None), "threshold": (int, 0, None),
               "count_recipients": (bool, 0, 1)}

    def __init__(
        self,
        binding,
        window: int = bulk.DEFAULT_WINDOW_SIZE,
        threshold: int = bulk.DEFAULT_VOLUME_THRESHOLD,
        count_recipients: bool = False,
    ):
        self.binding = binding
        self.window = bulk.VolumeWindow(
            window_size=window,
            threshold=threshold,
            count_recipients=count_recipients,
        )

    def classify(self, m: Message) -> Verdict:
        return bulk.volume_classify(self.window, m)


class ChecksumFilterState:
    """Builtin checksum clearinghouse filter with a local database.

    Each filter keeps the digests of the bodies it sees twice or more in a
    Memo (body -> digest), so a recurring body is hashed twice in its run.
    """

    OPTIONS = {"threshold": (int, 1, None)}

    def __init__(
        self, binding, fuzzy: bool, threshold: int = bulk.DEFAULT_BULK_THRESHOLD
    ):
        self.binding = binding
        self.fuzzy = fuzzy
        self.db = bulk.ChecksumDB(bulk_threshold=threshold)
        # bulk.body_checksum is looked up at each call, so a patch on it
        # sees every digest computed
        self.digests = Memo(lambda body: bulk.body_checksum(body, fuzzy))

    def classify(self, m: Message) -> Verdict:
        return bulk.checksum_classify(self.db, m, self.fuzzy, self.digests)


class ConstantFilterState:
    """Reference filter that returns one fixed label."""

    OPTIONS: dict[str, tuple] = {}

    def __init__(self, binding, label: Label):
        self.binding = binding
        self.label = label

    def classify(self, m: Message) -> Verdict:
        return Verdict(self.label, None)


class ExternalFilterState:
    """Wrapper around an external classify command and optional trainer.

    Both commands were split when the binding was made, and a log-reading
    wrapper's environment is copied once, when the filter is built, so a
    classify call costs one process and no set-up.
    """

    def __init__(self, binding: FilterBinding, log_path=None):
        self.binding = binding
        self.env = None
        if binding.needs_connection_log:
            if log_path is None:
                raise ValueError(f"{binding.name}: connection log required")
            self.env = {**os.environ, CONNLOG_ENV_VAR: str(log_path)}

    def train(self, ham, spam, stream) -> None:
        """Run the trainer on the two mboxes; the stream is not read."""
        self._run([*self.binding.trainer_argv, str(ham), str(spam)], None, None,
                  TrainerFailed, "trainer ")

    def classify(self, m: Message) -> Verdict:
        stdout = self._run(self.binding.argv, render_message(m).encode("utf-8"),
                           self.env, WrapperCrashed, "")
        return _parse_wrapper_output(self.binding.name, stdout)

    def _run(self, argv, stdin, env, error, what: str) -> bytes:
        """Run argv with stdin (bytes, or None to inherit it) and env, and
        return its stdout. If it cannot start or exits nonzero, raise error
        naming the filter, then "<what>exited <status>" and the last
        non-empty line it wrote on stderr, which is usually its reason."""
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True, env=env)
        except OSError as exc:
            raise error(f"{self.binding.name}: {exc}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", errors="replace").splitlines()
            why = next((f": {ln.strip()}" for ln in reversed(stderr) if ln.strip()), "")
            raise error(f"{self.binding.name}: {what}exited {proc.returncode}{why}")
        return proc.stdout


def _parse_wrapper_output(name: str, stdout: bytes) -> Verdict:
    lines = [
        line for line in stdout.decode("utf-8", errors="replace").splitlines()
        if line.strip()
    ]
    if not lines:
        raise WrapperCrashed(f"{name}: no output")
    parts = lines[0].split()
    if len(parts) > 2 or parts[0].lower() not in ("spam", "ham"):
        raise WrapperCrashed(f"{name}: malformed output {lines[0]!r}")
    score = None
    if len(parts) == 2:
        try:
            score = float(parts[1])
        except ValueError as exc:
            raise WrapperCrashed(f"{name}: bad score {parts[1]!r}") from exc
    label = Label.SPAM if parts[0].lower() == "spam" else Label.HAM
    return Verdict(label, score)


# builtin id -> filter class and the fixed arguments that set it apart
BUILTIN_FILTERS = {
    "bayes": (BayesFilterState, {}),
    "volume": (VolumeFilterState, {}),
    "checksum": (ChecksumFilterState, {"fuzzy": False}),
    "checksum-fuzzy": (ChecksumFilterState, {"fuzzy": True}),
    "pass-all": (ConstantFilterState, {"label": Label.HAM}),
    "block-all": (ConstantFilterState, {"label": Label.SPAM}),
}


def build_filter(binding: FilterBinding, log_path=None):
    """Instantiate the stateful filter object for a binding, passing its
    option values as keyword arguments. log_path is the connection log that
    an external filter reading it is pointed at; building one without it
    raises ValueError."""
    if binding.builtin is None:
        return ExternalFilterState(binding, log_path)
    cls, fixed = BUILTIN_FILTERS[binding.builtin]
    return cls(binding, **fixed, **binding.option_values)


def classify(filt, m: Message) -> Verdict:
    """Classify one message with a built filter."""
    return filt.classify(m)


def train(filt, ham, spam, stream) -> None:
    """Train a built filter from a ham and a spam mbox path and the
    training stream written to them."""
    if not filt.binding.needs_training:
        raise TrainerFailed(f"{filt.binding.name}: filter takes no training")
    for path in (ham, spam):
        if not Path(path).is_file():
            raise TrainerFailed(f"{filt.binding.name}: missing {path}")
    filt.train(ham, spam, stream)


def emit_training_sets(stream, out_dir):
    """Write labelled traffic to out_dir/ham.mbox and out_dir/spam.mbox.

    Returns ([ham path], [spam path]).
    """
    out = Path(out_dir)
    ham_path = out / "ham.mbox"
    spam_path = out / "spam.mbox"
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_mbox(ham_path, [m for m in stream if m.truth is Label.HAM])
        write_mbox(spam_path, [m for m in stream if m.truth is Label.SPAM])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return [ham_path], [spam_path]
