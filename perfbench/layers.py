"""Spans around the calls into each spamlab module's public functions.

Each function is patched at the name its caller looks it up under (for
example evalcli's imported `step`, or the `bayes` module attribute that
filters reaches through `from . import bayes`). A patch site that no longer
holds the original function makes install() fail, so a refactor that moves
an import cannot silently zero a layer. Spans are aggregated in memory as
they close: calls, total time, and self time (span minus child spans).
"""

from __future__ import annotations

import os
import time
from collections import Counter

from inputs import SPAWN_LOG_ENV
from spamlab import bayes, bulk, corpus, evalcli, filters, trafficgen

# (layer, object the caller looks the name up on, name, defining module)
SITES = [
    ("trafficgen.step", evalcli, "step", trafficgen),
    ("trafficgen.calibrate_spam_fraction", trafficgen, "calibrate_spam_fraction", trafficgen),
    ("corpus.tokenize", bayes, "tokenize", corpus),
    ("corpus.tokenize", trafficgen, "tokenize", corpus),
    ("corpus.render_message", filters, "render_message", corpus),
    ("corpus.write_mbox", filters, "write_mbox", corpus),
    ("corpus.split_mbox", bayes, "split_mbox", corpus),
    ("corpus.split_mbox", corpus, "split_mbox", corpus),
    ("corpus.parse_message", bayes, "parse_message", corpus),
    ("corpus.load_corpus", evalcli, "load_corpus", corpus),
    ("bayes.train_bayes", bayes, "train_bayes", bayes),
    ("bayes.bayes_classify", bayes, "bayes_classify", bayes),
    ("bulk.checksum_classify", bulk, "checksum_classify", bulk),
    ("bulk.body_checksum", bulk, "body_checksum", bulk),
    ("bulk.volume_classify", bulk, "volume_classify", bulk),
    ("filters.classify", evalcli, "classify", filters),
    ("filters.emit_training_sets", evalcli, "emit_training_sets", filters),
    ("filters.train", evalcli, "train", filters),
    ("filters.external", filters.ExternalFilterState, "classify", filters.ExternalFilterState),
    ("evalcli.load_scenario", evalcli, "load_scenario", evalcli),
    ("evalcli.run_scenario", evalcli, "run_scenario", evalcli),
    ("evalcli.write_reports", evalcli, "write_reports", evalcli),
]

_ALWAYS = {
    "trafficgen.step", "trafficgen.calibrate_spam_fraction", "corpus.load_corpus",
    "filters.classify", "evalcli.load_scenario", "evalcli.run_scenario",
    "evalcli.write_reports",
}
_TRAINED = {
    "corpus.render_message", "corpus.write_mbox", "filters.emit_training_sets",
    "filters.train",
}
_BAYES_AND_BULK = _TRAINED | {
    "corpus.tokenize", "corpus.split_mbox", "corpus.parse_message",
    "bayes.train_bayes", "bayes.bayes_classify", "bulk.checksum_classify",
    "bulk.body_checksum", "bulk.volume_classify",
}
# Layers that must record calls on each workload.
WORKING = {
    "user-bayes": _ALWAYS | _BAYES_AND_BULK | {"bayes.user_models"},
    "server-bulk": _ALWAYS | _BAYES_AND_BULK,
    "external-wrapper": _ALWAYS | _TRAINED | {"filters.external"},
}


class SiteMissing(Exception):
    """A patch site no longer holds the function the tracer expects."""


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.built: list = []
        self._stack: list[tuple[str, list]] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- patching ----------------------------------------------------------

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        for layer, owner, name, home in SITES:
            original = getattr(owner, name, None)
            if original is None or original is not getattr(home, name, None):
                raise SiteMissing(
                    f"{getattr(owner, '__name__', owner)}.{name} is not"
                    f" {home.__name__}.{name}; the {layer} layer cannot be traced"
                )
        if corpus.write_mbox.__defaults__ != (corpus.render_message,):
            raise SiteMissing("corpus.write_mbox no longer renders with render_message")
        if getattr(evalcli, "build_filter", None) is not filters.build_filter:
            raise SiteMissing("evalcli.build_filter is not filters.build_filter")

        extras = {
            "trafficgen.step": self._count_step,
            "corpus.tokenize": self._count_tokenize,
            "corpus.write_mbox": self._count_mbox,
            "filters.emit_training_sets": self._count_sets,
            "bayes.train_bayes": self._count_training,
        }
        for layer, owner, name, _ in SITES:
            self._set(owner, name, self._span(layer, getattr(owner, name), extras.get(layer)))
        self._set(corpus.write_mbox, "__defaults__", (filters.render_message,))
        build = filters.build_filter

        def recording_build(*args, **kwargs):
            built = build(*args, **kwargs)
            self.built.append(built)
            return built

        self._set(evalcli, "build_filter", recording_build)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _span(self, layer, fn, extra):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            children = [0.0]
            stack.append((layer, children))
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if stack:
                    stack[-1][1][0] += elapsed
                if extra is not None:
                    extra(args, result, parent)

        return traced

    # --- counts taken at the same boundaries --------------------------------

    def _count_step(self, args, result, parent) -> None:
        if result is not None:
            self.counts["step.messages"] += len(result)
            self.counts["step.deliveries"] += sum(len(m.recipients) for m, _ in result)

    def _count_tokenize(self, args, result, parent) -> None:
        self.counts["tokenize.chars"] += len(args[0])

    def _count_mbox(self, args, result, parent) -> None:
        if os.path.exists(args[0]):
            self.counts["write_mbox.bytes"] += os.path.getsize(args[0])

    def _count_sets(self, args, result, parent) -> None:
        if result is not None:
            ham, spam = result
            self.counts["emit_training_sets.files"] += len(ham) + len(spam)

    def _count_training(self, args, result, parent) -> None:
        # builtin Bayes trains its general model through filters.train;
        # every other call is one per-user training attempt
        if parent != "filters.train":
            self.counts["train_bayes.per_user"] += 1

    # --- results -----------------------------------------------------------

    def summary(self, child_cpu_s: float, out_dir) -> dict[str, float]:
        """Per-layer metrics by their BENCHMARK.json names."""
        m: dict[str, float] = {}
        for layer, (calls, _, self_s) in self.stats.items():
            m[f"{layer}.calls"] = calls
            m[f"{layer}.self_s"] = self_s
        c = self.counts
        m["trafficgen.step.messages"] = c["step.messages"]
        m["trafficgen.step.deliveries"] = c["step.deliveries"]
        m["corpus.tokenize.chars"] = c["tokenize.chars"]
        m["corpus.write_mbox.bytes"] = c["write_mbox.bytes"]
        m["filters.emit_training_sets.files"] = c["emit_training_sets.files"]
        kept = sum(len(getattr(f, "user_models", ())) for f in self.built)
        attempts = c["train_bayes.per_user"]
        m["bayes.user_models.kept"] = kept
        m["bayes.user_models.kept_ratio"] = kept / attempts if attempts else 0.0
        ext_calls, ext_total, _ = self.stats["filters.external"]
        m["filters.external.ms_per_call"] = 1000 * ext_total / ext_calls if ext_calls else 0.0
        m["filters.external.child_cpu_s"] = child_cpu_s
        spawn_log = os.environ.get(SPAWN_LOG_ENV)
        m["filters.external.spawns"] = (
            os.path.getsize(spawn_log) if spawn_log and os.path.exists(spawn_log) else 0
        )
        with open(os.path.join(out_dir, "connections.log"), "rb") as fh:
            m["evalcli.connlog.lines"] = sum(1 for _ in fh)
        return m


def check_working(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layers marked as working on the workload that recorded no calls."""
    idle = []
    for layer in sorted(WORKING[workload]):
        if layer == "bayes.user_models":
            value = metrics["bayes.user_models.kept"]
        else:
            value = metrics[f"{layer}.calls"]
        if value == 0:
            idle.append(layer)
    return idle
