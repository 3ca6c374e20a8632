"""Scenario orchestration: run labelled traffic through filters, compute
FAR/FRR/wrongness, rank the filters, and emit reports.

A scenario is a key = value file naming the corpora, the traffic config,
and the filter lineup. Running it trains the trainable filters on one
generated stream, evaluates everything on a second stream, and writes
results.txt (ranked table), results.csv, and farfrr.svg into the run
directory.
"""

from __future__ import annotations

import argparse
import csv
import queue
import random
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from . import trafficgen
from .corpus import Label, load_corpus
from .errors import ConfigInvalid, IoFailure, SpamlabError, WrapperCrashed
from .filters import (
    FilterBinding,
    Level,
    build_filter,
    classify,
    emit_training_sets,
    train,
)
from .trafficgen import SimConfig, World, parse_kv, parse_value, step

DEFAULT_EPSILON = 0.01
# messages an external filter that reads no log may trail the stream by
TRAIL = 64


@dataclass
class ConfusionCounts:
    """Per-filter confusion counts over one evaluation run."""

    ss: int = 0  # spam classified spam
    sh: int = 0  # spam classified ham (false acceptance)
    hs: int = 0  # ham classified spam (false rejection)
    hh: int = 0  # ham classified ham

    def record(self, truth: Label, predicted: Label) -> None:
        if truth is Label.SPAM:
            if predicted is Label.SPAM:
                self.ss += 1
            else:
                self.sh += 1
        else:
            if predicted is Label.SPAM:
                self.hs += 1
            else:
                self.hh += 1

    @property
    def n_spam(self) -> int:
        return self.ss + self.sh

    @property
    def n_ham(self) -> int:
        return self.hs + self.hh


def far(c: ConfusionCounts) -> float | None:
    """False acceptance rate: spam delivered as ham over spam evaluated;
    None when no spam was evaluated."""
    return c.sh / c.n_spam if c.n_spam else None


def frr(c: ConfusionCounts) -> float | None:
    """False rejection rate: ham blocked as spam over ham evaluated; None
    when no ham was evaluated."""
    return c.hs / c.n_ham if c.n_ham else None


def wrongness(far_value: float, frr_value: float, eps: float = DEFAULT_EPSILON) -> float:
    """Scalar ranking metric (FRR+eps)^2 * (FAR+eps).

    False rejections are penalized quadratically: losing legitimate mail
    is worse than letting spam through.
    """
    return (frr_value + eps) ** 2 * (far_value + eps)


@dataclass
class FilterResult:
    """One filter's outcome: counts, rates, wrongness, wrapper errors."""

    name: str
    level: Level
    counts: ConfusionCounts
    far: float | None
    frr: float | None
    wrongness: float | None
    wrapper_errors: int = 0


def score(
    name: str, level: Level, counts: ConfusionCounts, wrapper_errors: int = 0
) -> FilterResult:
    """Score one filter's counts: FAR and FRR where defined, W where both are."""
    far_value, frr_value = far(counts), frr(counts)
    w = None
    if far_value is not None and frr_value is not None:
        w = wrongness(far_value, frr_value)
    return FilterResult(name, level, counts, far_value, frr_value, w, wrapper_errors)


def rank(results: list[FilterResult]) -> list[FilterResult]:
    """Order results by ascending wrongness, ties broken by name.

    Results without a wrongness value (degenerate runs) sort last.
    """
    return sorted(
        results,
        key=lambda r: (r.wrongness is None, r.wrongness or 0.0, r.name),
    )


@dataclass(frozen=True)
class Scenario:
    """One evaluation configuration: corpora, traffic, filters, phases. It
    is checked when made: RANGES, at least one filter, unique filter names."""

    RANGES = {"training_steps": (0, None), "eval_steps": (1, None)}

    name: str
    spam_corpus: str
    ham_corpus: str
    sim: SimConfig
    filters: tuple[FilterBinding, ...]
    training_steps: int = 2000
    eval_steps: int = 10000
    personalized: bool = False
    bogus_headers: bool = False
    random_words: bool = False

    def __post_init__(self):
        trafficgen.check_ranges(self)
        if not self.filters:
            raise ConfigInvalid("at least one filter is required")
        if len({b.name for b in self.filters}) < len(self.filters):
            raise ConfigInvalid("filter names must be unique")


def _parse_level(where, text: str) -> Level:
    """Read a level (U or S, in any case); raise ConfigInvalid naming where."""
    try:
        return Level(text.upper())
    except ValueError:
        raise ConfigInvalid(f"{where}: bad level {text!r}") from None


def _parse_filter_entry(entry: str, values: dict[str, str], default_level: Level) -> FilterBinding:
    """Read one lineup entry and its filter's keys, options included, into
    a binding, which checks the binding rules itself."""
    tokens = entry.split()
    if len(tokens) > 3:
        raise ConfigInvalid(f"filter entry {entry!r} has too many tokens")
    name = tokens[0]
    if name in ("external", "trainer", "connlog"):
        # its options would read as another filter's command or log key
        raise ConfigInvalid(
            f"filter {name}: {name!r} is reserved for {name}.<filter> keys"
        )
    if "." in name:  # its <name>.<option> keys would split at the wrong dot
        raise ConfigInvalid(f"filter {name}: {name!r} may not contain '.'")
    level = _parse_level(f"filter {name}", tokens[1]) if len(tokens) >= 2 else default_level

    key = f"connlog.{name}"
    command = values.get(f"external.{name}")
    # a builtin id given beside a command is kept, so the binding rejects both
    builtin = tokens[2] if len(tokens) == 3 else name if command is None else None
    prefix = f"{name}."
    return FilterBinding(
        name=name,
        level=level,
        builtin=builtin,
        command=command,
        trainer_command=values.get(f"trainer.{name}"),
        needs_connection_log=parse_value(
            f"filter {name}", key, values.get(key, "false"), bool
        ),
        options={k.removeprefix(prefix): text
                 for k, text in values.items() if k.startswith(prefix)},
    )


def load_scenario(path) -> Scenario:
    """Load a scenario config file; the Scenario checks itself."""
    path = Path(path)
    values = parse_kv(path)
    for key in ("spam_corpus", "ham_corpus", "sim", "filters"):
        if key not in values:
            raise ConfigInvalid(f"{path}: missing key {key!r}")
    level = _parse_level(path, values.get("level", "U"))
    base = path.parent
    made = {
        "name": values.get("name", path.stem),
        "spam_corpus": str(base / values["spam_corpus"]),
        "ham_corpus": str(base / values["ham_corpus"]),
        "sim": trafficgen.load_sim_config(base / values["sim"]),
        "filters": tuple(_parse_filter_entry(entry.strip(), values, level)
                         for entry in values["filters"].split(";") if entry.strip()),
    }
    # any other top-level key but level is a typed field; dotted keys are filters'
    typed = {key: text for key, text in values.items()
             if "." not in key and key not in made and key != "level"}
    return trafficgen.read_config(path, Scenario, typed, **made)


def _load_ham_corpora(root: str):
    root_path = Path(root)
    if not root_path.is_dir():
        raise ConfigInvalid(f"no ham corpus directory at {root}")
    topic_dirs = sorted(
        (d for d in root_path.iterdir() if d.is_dir()), key=lambda d: d.name
    )
    if topic_dirs:
        return [load_corpus(d, d.name) for d in topic_dirs]
    return [load_corpus(root_path, root_path.name or "general")]


def _build_world(scenario: Scenario, rng) -> World:
    ham_corpora = _load_ham_corpora(scenario.ham_corpus)
    spam_corpus = None
    if scenario.sim.n_spammers > 0:
        spam_corpus = load_corpus(scenario.spam_corpus, "spam")
    return World(
        scenario.sim,
        ham_corpora,
        spam_corpus,
        rng,
        personalize_spam=scenario.personalized,
        bogus_headers=scenario.bogus_headers,
        random_words=scenario.random_words,
    )


def _train_filters(filters, stream, out_dir):
    """Phase 1: train every trainable filter on the general ham/spam mbox
    pair and the stream written to it."""
    trainables = [f for f in filters if f.binding.needs_training]
    if not trainables:
        return
    missing = [c.value for c in Label if all(m.truth is not c for m in stream)]
    if missing:
        names = ", ".join(f.binding.name for f in trainables)
        raise ConfigInvalid(
            f"filter {names}: the training stream has no"
            f" {' and no '.join(missing)}; raise training_steps"
        )
    training_dir = Path(out_dir) / "training"
    ham_paths, spam_paths = emit_training_sets(stream, training_dir)
    for f in trainables:
        train(f, ham_paths[0], spam_paths[0], stream)


def _tally(f, position, index, m, counts, errors, failures) -> bool:
    """Count f's verdict on m, the stream's message index, in counts, or
    its wrapper crash in errors; record any other exception in failures as
    (index, position, exception), for run_scenario to raise after the join.
    Returns whether f may go on. Only the thread that classifies with f
    writes f's entries."""
    try:
        counts[f.binding.name].record(m.truth, classify(f, m).label)
    except WrapperCrashed:
        errors[f.binding.name] += 1
    except BaseException as exc:
        failures.append((index, position, exc))
        return False
    return True


def _work(f, position, inbox, counts, errors, failures) -> None:
    """Classify each (index, message) taken from inbox with f, until None.
    After its first failure f classifies nothing more but still takes each
    message, so a put on its full inbox cannot block for ever."""
    going = True
    while (item := inbox.get()) is not None:
        going = going and _tally(f, position, *item, counts, errors, failures)
        inbox.task_done()


def run_scenario(scenario: Scenario, out_dir) -> list[FilterResult]:
    """Run one scenario end to end and write its reports.

    Phase 1 generates training_steps of labelled traffic for the trainable
    filters; phase 2 generates eval_steps, maintains the connection log,
    classifies every message with every filter in stream order, and
    accumulates confusion counts. Wrapper crashes are tallied per filter
    and excluded from the counts. Each external filter classifies on one
    worker thread for the whole run, builtins on this one. A log reader
    finishes each message before the log gets the next line; other
    wrappers may trail the stream by up to TRAIL messages. Any other
    exception stops the stream and, once every worker is joined, the one
    of the earliest (message, lineup position) is raised; the log may
    then hold lines past that message.
    """
    out = Path(out_dir)
    log_path = out / "connections.log"
    filters = [build_filter(b, log_path) for b in scenario.filters]
    rng = random.Random(scenario.sim.seed)
    world = _build_world(scenario, rng)

    training_stream = [
        m
        for _ in range(scenario.training_steps)
        for (m, _e) in step(world, rng)
    ]
    _train_filters(filters, training_stream, out)
    del training_stream  # evaluation holds no training message

    counts = {f.binding.name: ConfusionCounts() for f in filters}
    errors = {f.binding.name: 0 for f in filters}
    failures: list = []  # (message index, lineup position, exception)
    inboxes = {i: queue.Queue(TRAIL) for i, f in enumerate(filters)
               if f.binding.command is not None}
    readers = [q for i, q in inboxes.items() if filters[i].binding.needs_connection_log]
    builtins = [(i, f) for i, f in enumerate(filters) if i not in inboxes]
    workers = [
        threading.Thread(target=_work, args=(filters[i], i, q, counts, errors, failures))
        for i, q in inboxes.items()
    ]
    try:
        out.mkdir(parents=True, exist_ok=True)
        log = open(log_path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    with log:
        try:
            for t in workers:
                t.start()
            stream = (pair for _ in range(scenario.eval_steps) for pair in step(world, rng))
            for index, (m, entry) in enumerate(stream):
                log.write(entry.as_line() + "\n")
                if readers:
                    log.flush()
                for q in inboxes.values():
                    q.put((index, m))
                for i, f in builtins:
                    _tally(f, i, index, m, counts, errors, failures)
                for q in readers:
                    q.join()
                if failures:
                    break
        finally:
            for q in inboxes.values():
                q.put(None)
            for t in workers:
                if t.is_alive():
                    t.join()
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]

    ranked = rank([
        score(f.binding.name, f.binding.level, counts[f.binding.name],
              errors[f.binding.name])
        for f in filters
    ])
    write_reports(ranked, out)
    return ranked


def _fmt(value, spec, missing="-"):
    return format(value, spec) if value is not None else missing


def write_reports(ranked: list[FilterResult], out_dir) -> None:
    """Write results.txt, results.csv, and farfrr.svg for ranked results.

    results.txt ends with a note for each undefined rate and each filter
    with wrapper errors, in table order.
    """
    out = Path(out_dir)
    lines = [
        f"{'Filter':<20}{'Level':<7}{'FRR':>8}{'FAR':>8}{'W*10^5':>10}",
        "-" * 53,
    ]
    for r in ranked:
        w_e5 = r.wrongness * 1e5 if r.wrongness is not None else None
        lines.append(
            f"{r.name:<20}{r.level.value:<7}"
            f"{_fmt(r.frr, '.4f'):>8}{_fmt(r.far, '.3f'):>8}"
            f"{_fmt(w_e5, '.2f'):>10}"
        )
    for r in ranked:
        if r.far is None:
            lines.append(f"note: {r.name}: no spam evaluated; FAR and W undefined")
        if r.frr is None:
            lines.append(f"note: {r.name}: no ham evaluated; FRR and W undefined")
        if r.wrapper_errors:
            lines.append(
                f"note: {r.name}: {r.wrapper_errors} wrapper errors excluded"
                " from counts"
            )
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with open(out / "results.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "filter", "level", "n_spam", "n_ham",
                    "ss", "sh", "hs", "hh", "wrapper_errors",
                    "frr", "far", "wrongness",
                ]
            )
            for r in ranked:
                writer.writerow(
                    [
                        r.name, r.level.value, r.counts.n_spam, r.counts.n_ham,
                        r.counts.ss, r.counts.sh, r.counts.hs, r.counts.hh,
                        r.wrapper_errors,
                        _fmt(r.frr, ".10g", ""), _fmt(r.far, ".10g", ""),
                        _fmt(r.wrongness, ".10g", ""),
                    ]
                )
        (out / "farfrr.svg").write_text(render_far_frr_svg(ranked), encoding="utf-8")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f", "#17becf")
_SVG_FRR_MAX = 0.02
_SVG_FAR_MAX = 1.0


def render_far_frr_svg(results) -> str:
    """Scatter plot of filters in the FAR/FRR plane.

    FRR runs horizontally on [0, _SVG_FRR_MAX], FAR vertically on
    [0, _SVG_FAR_MAX]; points beyond the FRR range are clamped to the
    right edge.
    """
    width, height = 640, 480
    left, right, top, bottom = 70, 620, 20, 420

    def x_of(v):
        return left + (min(v, _SVG_FRR_MAX) / _SVG_FRR_MAX) * (right - left)

    def y_of(v):
        return bottom - (min(v, _SVG_FAR_MAX) / _SVG_FAR_MAX) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}"'
        ' stroke="black"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}"'
        ' stroke="black"/>',
    ]
    for tick in (0.0, 0.01, 0.02):
        x = x_of(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 6}"'
            ' stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{bottom + 22}" font-size="12"'
            f' text-anchor="middle">{tick:g}</text>'
        )
    for tick in (0.0, 0.5, 1.0):
        y = y_of(tick)
        parts.append(
            f'<line x1="{left - 6}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}"'
            ' stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 10}" y="{y + 4:.1f}" font-size="12"'
            f' text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{(left + right) // 2}" y="{bottom + 44}" font-size="14"'
        ' text-anchor="middle">FRR</text>'
    )
    parts.append(
        f'<text x="18" y="{(top + bottom) // 2}" font-size="14"'
        f' text-anchor="middle" transform="rotate(-90 18'
        f' {(top + bottom) // 2})">FAR</text>'
    )
    plotted = [r for r in results if r.far is not None and r.frr is not None]
    for i, r in enumerate(plotted):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        x, y = x_of(r.frr), y_of(r.far)
        name = r.name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + 7:.1f}" y="{y + 4:.1f}" font-size="11"'
            f' fill="{color}">{name} ({r.level.value})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_COUNT_COLUMNS = ("ss", "sh", "hs", "hh")


def _read_results_csv(path) -> list[FilterResult]:
    """Rebuild the results that write_reports put in a results.csv.

    Only the filter, level, counts and wrapper_errors columns are read;
    score recomputes FAR, FRR and W from the counts, so the rebuilt
    results are the ones the run wrote.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for column in ("filter", "level", *_COUNT_COLUMNS, "wrapper_errors"):
                if column not in (reader.fieldnames or ()):
                    raise IoFailure(f"{path}: no {column!r} column")
            results = []
            for row in reader:
                try:
                    counts = [int(row[c]) for c in _COUNT_COLUMNS]
                    results.append(score(
                        row["filter"], Level(row["level"]),
                        ConfusionCounts(*counts), int(row["wrapper_errors"]),
                    ))
                except (TypeError, ValueError) as exc:
                    where = f"{path}, line {reader.line_num}"
                    raise IoFailure(f"{where}: {exc}") from exc
            return results
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spamlab",
        description="Email traffic simulation and spam filter benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write reports")
    p_run.add_argument("scenario", help="scenario config file")
    p_run.add_argument("-o", "--out", help="run directory (default runs/<name>)")

    p_cal = sub.add_parser(
        "calibrate", help="calibrate spammer activation for the spam target"
    )
    p_cal.add_argument("scenario", help="scenario config file")
    p_cal.add_argument("-o", "--out", help="write the calibrated sim config here")

    p_rep = sub.add_parser("report", help="regenerate reports from results.csv")
    p_rep.add_argument("rundir", help="run directory containing results.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
            out = args.out or str(Path("runs") / scenario.name)
            ranked = run_scenario(scenario, out)
            print((Path(out) / "results.txt").read_text(encoding="utf-8"), end="")
            print(f"reports written to {out}")
        elif args.command == "calibrate":
            scenario = load_scenario(args.scenario)
            calibrated = trafficgen.calibrate_spam_fraction(scenario.sim)
            print(
                f"activation_prob: {scenario.sim.activation_prob}"
                f" -> {calibrated.activation_prob:.6f}"
            )
            if args.out:
                trafficgen.write_sim_config(calibrated, args.out)
                print(f"calibrated sim config written to {args.out}")
        elif args.command == "report":
            rundir = Path(args.rundir)
            ranked = rank(_read_results_csv(rundir / "results.csv"))
            write_reports(ranked, rundir)
            print(f"reports rewritten in {rundir}")
    except SpamlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0

