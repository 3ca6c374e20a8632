import dataclasses
import gc
import os
import shlex
import socket
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from xml.etree import ElementTree

import pytest

from conftest import DEFAULT_SIM, KEYWORD, LOG_PARITY, build_scenario_files, sh
from spamlab import evalcli
from spamlab.corpus import Label, Verdict
from spamlab.errors import ConfigInvalid
from spamlab.evalcli import load_scenario, main, rank, run_scenario
from spamlab.filters import (
    ConstantFilterState, ExternalFilterState, Level, build_filter, classify,
)
from spamlab.trafficgen import step


def run(scenario_path, out):
    scenario = load_scenario(scenario_path)
    return scenario, run_scenario(scenario, out)


class TestScenarioLoading:
    def test_loads_bindings_and_sim(self, tmp_path, scenario_builder):
        path = scenario_builder(tmp_path)
        scenario = load_scenario(path)
        assert scenario.sim.n_users == 40
        assert [b.name for b in scenario.filters] == [
            "bayes", "volume", "checksum-fuzzy", "pass-all",
        ]
        bayes = scenario.filters[0]
        assert bayes.needs_training and bayes.level is Level.USER
        volume = scenario.filters[1]
        assert volume.level is Level.SERVER and not volume.needs_connection_log

    def test_scenario_is_checked_when_made(self, tmp_path, scenario_builder):
        scenario = load_scenario(scenario_builder(tmp_path))
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.eval_steps = 0
        with pytest.raises(ConfigInvalid, match=r"^training_steps = -1 must be >= 0$"):
            dataclasses.replace(scenario, training_steps=-1)
        with pytest.raises(ConfigInvalid, match="filter names must be unique"):
            dataclasses.replace(scenario, filters=scenario.filters[:1] * 2)
        with pytest.raises(ConfigInvalid, match="at least one filter is required"):
            dataclasses.replace(scenario, filters=())

    def test_missing_keys_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("name = x\n")
        with pytest.raises(ConfigInvalid):
            load_scenario(bad)

    def test_unknown_filter_rejected(self, tmp_path, scenario_builder):
        path = scenario_builder(
            tmp_path, scenario_overrides={"filters": "psychic U"}
        )
        with pytest.raises(ConfigInvalid):
            load_scenario(path)

    def test_filter_options_collected(self, tmp_path, scenario_builder):
        path = scenario_builder(tmp_path)
        with open(path, "a") as fh:
            fh.write("bayes.threshold = 0.8\nvolume.threshold = 4\n")
        bayes, volume = load_scenario(path).filters[:2]
        assert bayes.options["threshold"] == "0.8"
        assert volume.options["threshold"] == "4"

    def test_bool_option_spellings_and_outside_options(
        self, tmp_path, scenario_builder
    ):
        path = scenario_builder(tmp_path)
        with open(path, "a") as fh:
            # checksum and other are not in the lineup: their keys stay legal
            fh.write(
                "volume.count_recipients = on\n"
                "checksum.threshold = 3\n"
                "external.other = cat\n"
                "connlog.other = maybe\n"
            )
        scenario = load_scenario(path)
        volume = scenario.filters[1]
        assert build_filter(volume).window.count_recipients is True
        assert all("threshold" not in b.options for b in scenario.filters)

    def test_readme_config_examples_load(self, tmp_path):
        """README's two ini blocks, the scenario and its sim.cfg, load as
        written."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        scenario_text, sim_text = readme.split("```ini\n")[1:3]
        (tmp_path / "scenario.cfg").write_text(scenario_text.split("```")[0])
        (tmp_path / "sim.cfg").write_text(sim_text.split("```")[0])
        scenario = load_scenario(tmp_path / "scenario.cfg")
        assert scenario.name == "baseline" and scenario.eval_steps == 10000
        assert [b.level for b in scenario.filters] == [
            Level.USER, Level.SERVER, Level.SERVER, Level.USER,
        ]
        assert scenario.sim.n_users == 500 and scenario.sim.spammer_db_size == 20


class TestRunScenario:
    def test_reports_written_and_counts_consistent(self, tmp_path, scenario_builder):
        path = scenario_builder(tmp_path)
        scenario, results = run(path, tmp_path / "out")
        for name in ("results.txt", "results.csv", "farfrr.svg",
                     "connections.log"):
            assert (tmp_path / "out" / name).exists()
        evaluated = {
            r.name: r.counts.ss + r.counts.sh + r.counts.hs + r.counts.hh
            for r in results
        }
        totals = set(evaluated.values())
        assert len(totals) == 1  # same stream for every builtin filter
        log_lines = (tmp_path / "out" / "connections.log").read_text().splitlines()
        assert len(log_lines) == totals.pop()

    def test_results_are_ranked(self, tmp_path, scenario_builder):
        path = scenario_builder(tmp_path)
        _, results = run(path, tmp_path / "out")
        assert results == rank(results)

    def test_bayes_beats_pass_all_on_separable_corpora(
        self, tmp_path, scenario_builder
    ):
        path = scenario_builder(tmp_path)
        _, results = run(path, tmp_path / "out")
        by_name = {r.name: r for r in results}
        assert by_name["bayes"].wrongness < by_name["pass-all"].wrongness

    def test_pass_all_reference_rates(self, tmp_path, scenario_builder):
        path = scenario_builder(tmp_path)
        _, results = run(path, tmp_path / "out")
        by_name = {r.name: r for r in results}
        passer = by_name["pass-all"]
        assert passer.far == 1.0
        assert passer.frr == 0.0
        assert passer.wrongness == pytest.approx(1.01e-4)

    def test_zero_spammer_scenario_footnotes_far(self, tmp_path, scenario_builder):
        path = scenario_builder(
            tmp_path,
            sim_overrides={"n_spammers": 0},
            scenario_overrides={"filters": "pass-all U", "training_steps": 0},
        )
        _, results = run(path, tmp_path / "out")
        assert results[0].far is None
        assert results[0].frr == 0.0
        text = (tmp_path / "out" / "results.txt").read_text()
        assert "no spam evaluated" in text

    def test_crashing_wrapper_is_tallied_not_counted(self, tmp_path, scenario_builder):
        crash = f"{shlex.quote(sys.executable)} -c 'raise SystemExit(1)'"
        path = scenario_builder(
            tmp_path,
            scenario_overrides={
                "filters": "pass-all U; broken U",
                "training_steps": 0,
                "eval_steps": 5,
            },
        )
        with open(path, "a") as fh:
            fh.write(f"external.broken = {crash}\n")
        _, results = run(path, tmp_path / "out")
        by_name = {r.name: r for r in results}
        broken = by_name["broken"]
        evaluated = by_name["pass-all"].counts
        assert broken.wrapper_errors == (
            evaluated.ss + evaluated.sh + evaluated.hs + evaluated.hh
        )
        assert broken.counts.n_spam == broken.counts.n_ham == 0
        assert "wrapper errors" in (tmp_path / "out" / "results.txt").read_text()

    def test_external_filter_participates(self, tmp_path, scenario_builder):
        script = tmp_path / "keyword_filter.py"
        script.write_text(
            "import sys\n"
            "text = sys.stdin.read().lower()\n"
            "print('spam' if 'spamword' in text else 'ham')\n"
        )
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
        path = scenario_builder(
            tmp_path,
            scenario_overrides={
                "filters": "keyword U",
                "training_steps": 0,
                "eval_steps": 8,
            },
        )
        with open(path, "a") as fh:
            fh.write(f"external.keyword = {command}\n")
        _, results = run(path, tmp_path / "out")
        keyword = results[0]
        assert keyword.wrapper_errors == 0
        assert keyword.far == 0.0  # every spam body contains spamword tokens
        assert keyword.frr == 0.0

    def test_same_seed_runs_are_byte_identical(self, tmp_path, scenario_builder):
        path = scenario_builder(
            tmp_path, scenario_overrides={"training_steps": 10, "eval_steps": 15}
        )
        run(path, tmp_path / "a")
        run(path, tmp_path / "b")
        csv_a = (tmp_path / "a" / "results.csv").read_bytes()
        csv_b = (tmp_path / "b" / "results.csv").read_bytes()
        assert csv_a == csv_b

    def test_training_messages_released_before_evaluation(
        self, tmp_path, scenario_builder, monkeypatch
    ):
        path = scenario_builder(tmp_path, scenario_overrides={"filters": "bayes U"})
        scenario = load_scenario(path)
        training, alive, steps = [], [], [0]

        def recording_step(world, rng):
            batch = step(world, rng)
            steps[0] += 1
            if steps[0] <= scenario.training_steps:
                training.extend(weakref.ref(m) for m, _ in batch)
            return batch

        def checking_classify(f, m):
            if not alive:
                gc.collect()
                alive.append([r for r in training if r() is not None])
            return classify(f, m)

        monkeypatch.setattr(evalcli, "step", recording_step)
        monkeypatch.setattr(evalcli, "classify", checking_classify)
        run_scenario(scenario, tmp_path / "out")
        assert training and alive == [[]]


class TestSideBySideWrappers:
    def run_lineup(self, root, lineup, commands, eval_steps=6):
        path = build_scenario_files(
            root,
            scenario_overrides={
                "filters": lineup, "training_steps": 0, "eval_steps": eval_steps,
            },
        )
        with open(path, "a") as fh:
            for name, command in commands.items():
                fh.write(f"external.{name} = {command}\n")
                if name == "log":
                    fh.write("connlog.log = true\n")
        _, results = run(path, root / "out")
        return {r.name: r for r in results}, root / "out"

    def rows(self, out):
        lines = (out / "results.csv").read_text().splitlines()
        return {line.split(",")[0]: line for line in lines[1:]}

    def test_same_results_as_each_wrapper_alone(self, tmp_path):
        both = {"kw": KEYWORD, "log": LOG_PARITY}
        results, together = self.run_lineup(
            tmp_path / "together", "log S; kw U; pass-all U", both
        )
        for name in both:  # each wrapper answered both labels, with no crash
            assert results[name].wrapper_errors == 0
            counts = results[name].counts
            assert counts.ss + counts.hs > 0 and counts.sh + counts.hh > 0
        rows = self.rows(together)
        for name, lineup in (("kw", "kw U"), ("log", "log S")):
            _, alone = self.run_lineup(
                tmp_path / name, lineup, {name: both[name]}
            )
            assert rows[name] == self.rows(alone)[name]
            assert (alone / "connections.log").read_bytes() == (
                together / "connections.log"
            ).read_bytes()

    def test_more_wrappers_than_cores_with_fast_thread_switching(self, tmp_path):
        names = ["kw1", "kw2", "kw3", "kw4"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results, _ = self.run_lineup(
                tmp_path / "many", "; ".join(f"{n} U" for n in names),
                dict.fromkeys(names, KEYWORD),
            )
        finally:
            sys.setswitchinterval(interval)
        alone, _ = self.run_lineup(tmp_path / "alone", "kw U", {"kw": KEYWORD})
        for name in names:
            assert results[name].wrapper_errors == 0
            assert results[name].counts == alone["kw"].counts

    def test_wrappers_of_one_message_run_at_the_same_time(self, tmp_path):
        # each wrapper touches its own file, then waits up to 2 s for the
        # other's; run one after another, the first one gives up and fails
        def meet(mine, other):
            mine, other = (shlex.quote(str(tmp_path / f)) for f in (mine, other))
            return sh(
                f"touch {mine}; i=0;"
                f" while [ ! -e {other} ] && [ $i -lt 20 ];"
                " do sleep 0.1; i=$((i + 1)); done;"
                f" cat > /dev/null; [ -e {other} ] && echo ham"
            )

        results, _ = self.run_lineup(
            tmp_path, "a U; b U; pass-all U",
            {"a": meet("a.here", "b.here"), "b": meet("b.here", "a.here")},
            eval_steps=1,
        )
        assert results["pass-all"].counts.n_ham > 0
        for name in ("a", "b"):
            assert results[name].wrapper_errors == 0
            assert results[name].counts == results["pass-all"].counts

    def test_side_wrapper_crash_is_tallied(self, tmp_path):
        results, _ = self.run_lineup(
            tmp_path / "crash", "broken U; kw U; pass-all U",
            {"broken": sh("cat > /dev/null; exit 1"), "kw": KEYWORD},
        )
        alone, _ = self.run_lineup(tmp_path / "alone", "kw U; pass-all U", {"kw": KEYWORD})
        evaluated = alone["pass-all"].counts
        assert results["broken"].wrapper_errors == evaluated.n_spam + evaluated.n_ham
        assert results["broken"].counts.n_spam == results["broken"].counts.n_ham == 0
        for name in ("kw", "pass-all"):
            assert results[name].counts == alone[name].counts
            assert results[name].wrapper_errors == 0

    def test_side_exception_stops_the_run_after_the_join(self, tmp_path, monkeypatch):
        original = ExternalFilterState.classify

        def classify(self, m):
            if self.binding.name == "first":
                raise RuntimeError("side filter broke")
            return original(self, m)

        monkeypatch.setattr(ExternalFilterState, "classify", classify)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="side filter broke"):
            self.run_lineup(
                tmp_path, "first U; kw U; pass-all U",
                {"first": KEYWORD, "kw": KEYWORD},
            )
        assert set(threading.enumerate()) == before

    def test_each_wrapper_sees_the_stream_in_order(self, tmp_path):
        # the log reader records the log's length at each call, the other
        # wrapper each message's sequence number
        lines, ids = (shlex.quote(str(tmp_path / f)) for f in ("lines", "ids"))
        results, _ = self.run_lineup(
            tmp_path, "ids U; log S; pass-all U",
            {
                "ids": sh(r"sed -n 's/^Message-ID: <\([0-9]*\)\..*/\1/p' >> " + ids
                          + "; echo ham"),
                "log": sh(f'cat > /dev/null; wc -l < "$SPAMLAB_CONNLOG" >> {lines};'
                          " echo ham"),
            },
            eval_steps=12,
        )
        evaluated = results["pass-all"].counts.n_spam + results["pass-all"].counts.n_ham
        assert evaluated > 10
        for name in ("lines", "ids"):
            seen = [int(n) for n in (tmp_path / name).read_text().split()]
            assert seen == list(range(1, evaluated + 1))

    def test_failed_worker_takes_its_messages_until_the_end(
        self, tmp_path, monkeypatch
    ):
        original = ExternalFilterState.classify

        def classify(self, m):
            if self.binding.name == "first":
                time.sleep(0.5)  # the run fills first's inbox meanwhile
                raise RuntimeError("first broke")
            return original(self, m)

        monkeypatch.setattr(ExternalFilterState, "classify", classify)
        before = set(threading.enumerate())
        raised = []

        def run_it():
            try:
                self.run_lineup(
                    tmp_path, "first U; kw U; pass-all U",
                    {"first": KEYWORD, "kw": KEYWORD}, eval_steps=40,
                )
            except RuntimeError as exc:
                raised.append(str(exc))

        runner = threading.Thread(target=run_it, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert raised == ["first broke"]
        assert set(threading.enumerate()) == before
        logged = (tmp_path / "out" / "connections.log").read_text().splitlines()
        stream = tmp_path / "stream"
        stream.mkdir()
        _, whole = self.run_lineup(stream, "pass-all U", {}, eval_steps=40)
        total = len((whole / "connections.log").read_text().splitlines())
        # the inbox filled, and the run stopped well before the stream's end
        assert evalcli.TRAIL + 1 < len(logged) < total - evalcli.TRAIL

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_builtin_exception_joins_every_worker(self, tmp_path, monkeypatch, error):
        calls = []

        def classify(self, m):
            calls.append(m)
            if len(calls) == 5:
                raise error("builtin broke")
            return Verdict(self.label, None)

        monkeypatch.setattr(ConstantFilterState, "classify", classify)
        before = set(threading.enumerate())
        with pytest.raises(error, match="builtin broke"):
            self.run_lineup(
                tmp_path, "kw U; log S; pass-all U", {"kw": KEYWORD, "log": LOG_PARITY}
            )
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize(
        "builtin_fails_at, raised",
        [(4, "first broke on 3"), (3, "pass-all broke on 3"), (2, "pass-all broke on 2")],
    )
    def test_earliest_failure_is_raised(self, tmp_path, monkeypatch, builtin_fails_at, raised):
        # first (lineup position 1) breaks on message 3 only after a pause,
        # so the run meets pass-all's failure (position 0) first in time
        seen = {"first": 0, "pass-all": 0}

        def breaking(name, fails_at, pause):
            def classify(self, m):
                index = seen[name]
                seen[name] += 1
                if index == fails_at:
                    time.sleep(pause)
                    raise RuntimeError(f"{name} broke on {index}")
                return Verdict(Label.HAM, None)
            return classify

        monkeypatch.setattr(ExternalFilterState, "classify", breaking("first", 3, 0.3))
        monkeypatch.setattr(
            ConstantFilterState, "classify", breaking("pass-all", builtin_fails_at, 0)
        )
        with pytest.raises(RuntimeError, match=f"^{raised}$"):
            self.run_lineup(tmp_path, "pass-all U; first U", {"first": KEYWORD})

    def test_two_wrappers_start_two_threads(self, tmp_path, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        results, _ = self.run_lineup(
            tmp_path, "kw U; log S; pass-all U", {"kw": KEYWORD, "log": LOG_PARITY}
        )
        assert results["pass-all"].counts.n_ham > 1
        assert len(started) == 2


# id -> (overrides, text appended to scenario.cfg, the error's message);
# overrides go to sim.cfg for its keys and to scenario.cfg for the rest
BAD_VALUES = {
    "volume-at-U": ({"filters": "volume U"}, "", "volume needs level S"),
    "connlog-at-U": (
        {"filters": "ext U"}, "external.ext = cat\nconnlog.ext = true\n",
        "connlog.ext needs level S",
    ),
    "training_steps": ({"training_steps": "abc"}, "", "training_steps = 'abc'"),
    "eval_steps": ({"eval_steps": "abc"}, "", "eval_steps = 'abc'"),
    "bayes.n": ({}, "bayes.n = abc\n", "bayes.n = 'abc'"),
    "bayes.threshold": ({}, "bayes.threshold = abc\n", "bayes.threshold = 'abc'"),
    "volume.window": ({}, "volume.window = abc\n", "volume.window = 'abc'"),
    "checksum.threshold": (
        {}, "checksum-fuzzy.threshold = x\n",
        "checksum-fuzzy.threshold = 'x'",
    ),
    "unknown-key": ({}, "eval_stepz = 3\n", "unknown key 'eval_stepz'"),
    "unknown-option": ({}, "bayes.thresold = 0.8\n", "unknown option bayes.thresold"),
    "bad-bool": ({"personalized": "flase"}, "", "personalized = 'flase'"),
    "bad-bool-option": (
        {}, "volume.count_recipients = maybe\n",
        "volume.count_recipients = 'maybe'",
    ),
    "no-training": (
        {"training_steps": 0}, "",
        "filter bayes: the training stream has no spam and no ham",
    ),
    "empty-command": (
        {"filters": "ext U"}, "external.ext =\n",
        "external.ext is empty",
    ),
    "unbalanced-command": (
        {"filters": "ext U"}, "external.ext = 'abc\n",
        "external.ext = \"'abc\": No closing quotation",
    ),
    "empty-trainer": (
        {"filters": "ext U"}, "external.ext = cat\ntrainer.ext =\n",
        "trainer.ext is empty",
    ),
    "unbalanced-trainer": (
        {"filters": "ext U"}, "external.ext = cat\ntrainer.ext = 'abc\n",
        "trainer.ext = \"'abc\": No closing quotation",
    ),
    "builtin-trainer": (
        {"filters": "pass-all U"}, "trainer.pass-all = no-such-trainer\n",
        "trainer.pass-all is for external filters only",
    ),
    "builtin-connlog-volume": (
        {}, "connlog.volume = true\n",
        "connlog.volume is for external filters only",
    ),
    "builtin-connlog-bayes": (
        {"filters": "bayes S"}, "connlog.bayes = true\n",
        "connlog.bayes is for external filters only",
    ),
    "sim-nan": ({"sigma": "nan"}, "", "sigma = 'nan' is not a finite float"),
    "sim-inf": ({"sigma": "inf"}, "", "sigma = 'inf' is not a finite float"),
    "sim-nan-mean": (
        {"recipients_mean": "nan"}, "",
        "recipients_mean = 'nan' is not a finite float",
    ),
    "option-inf": (
        {}, "bayes.threshold = -inf\n",
        "bayes.threshold = '-inf' is not a finite float",
    ),
    "sim-huge-sigma": (
        {"sigma": "1e308"}, "", "sim.cfg: sigma = 1e+308 must be in [0, 1e+12]",
    ),
    "sim-huge-mean": (
        {"recipients_mean": "1e17"}, "",
        "sim.cfg: recipients_mean = 1e+17 must be in [0, 1e+12]",
    ),
    "sim-zero-sigma": ({"sigma": 0}, "", "sim.cfg: sigma = 0.0 must be > 0"),
    "steps": ({"steps": -5}, "", "sim.cfg: steps = -5 must be >= 1"),
    "eval_steps-range": (
        {"eval_steps": 0}, "", "scenario.cfg: eval_steps = 0 must be >= 1",
    ),
    "duplicate-key": (
        {}, "eval_steps = 50\n", "scenario.cfg: repeated key 'eval_steps'",
    ),
    "reserved-filter-name": (
        {"filters": "trainer U bayes"}, "trainer.threshold = abc\n",
        "filter trainer: 'trainer' is reserved for trainer.<filter> keys",
    ),
    "bayes.n-range": ({}, "bayes.n = -5\n", "bayes.n = -5 must be >= 1"),
    "volume.window-range": (
        {}, "volume.window = 0\n",
        "volume.window = 0 must be >= 1",
    ),
    "checksum.threshold-range": (
        {}, "checksum-fuzzy.threshold = -1\n",
        "checksum-fuzzy.threshold = -1 must be >= 1",
    ),
    "sim-send_prob-range": (
        {"send_prob": 15}, "", "sim.cfg: send_prob = 15.0 must be in [0, 1]",
    ),
    "sim-activation_prob-range": (
        {"activation_prob": -3}, "",
        "sim.cfg: activation_prob = -3.0 must be in [0, 1]",
    ),
    "builtin-and-command": (
        {"filters": "foo U bayes"}, "external.foo = cat\n",
        "filter foo: needs exactly one of builtin or command",
    ),
    "dotted-name": (
        {"filters": "x.y S checksum"}, "x.y.threshold = 0\n",
        "filter x.y: 'x.y' may not contain '.'",
    ),
    # every offset rounds to 0, the sender: the first send cannot pick anyone
    "sigma-unreachable": (
        {"sigma": 0.01}, "", "sigma = 0.01 cannot reach k = ",
    ),
}
# the cases found only by running: calibrate generates no stream
RUN_ONLY = ("no-training", "sigma-unreachable")


class TestCli:
    def test_run_verb(self, tmp_path, scenario_builder, capsys):
        path = scenario_builder(
            tmp_path, scenario_overrides={"training_steps": 5, "eval_steps": 5}
        )
        out = tmp_path / "cli-out"
        assert main(["run", str(path), "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Filter" in captured.out
        assert (out / "results.csv").exists()

    def test_report_verb_regenerates(self, tmp_path, scenario_builder, capsys):
        plain = scenario_builder(
            tmp_path / "plain",
            scenario_overrides={"training_steps": 5, "eval_steps": 5},
        )
        # notes on two filters, which rank in the reverse of lineup order
        notes = scenario_builder(
            tmp_path / "notes",
            sim_overrides={"n_spammers": 0},
            scenario_overrides={
                "filters": "pass-all U; broken U",
                "training_steps": 0,
                "eval_steps": 3,
            },
        )
        with open(notes, "a") as fh:
            fh.write("external.broken = sh -c 'exit 1'\n")
        reports = ("results.txt", "results.csv", "farfrr.svg")
        for path in (plain, notes):
            out = path.parent / "cli-out"
            assert main(["run", str(path), "-o", str(out)]) == 0
            before = {name: (out / name).read_bytes() for name in reports}
            (out / "results.txt").unlink()
            (out / "farfrr.svg").unlink()
            assert main(["report", str(out)]) == 0
            for name in reports:
                assert (out / name).read_bytes() == before[name], (path, name)
        assert before["results.txt"].count(b"\nnote: ") == 4

    def test_svg_is_well_formed_for_any_filter_name(self, tmp_path, scenario_builder):
        path = scenario_builder(
            tmp_path, scenario_overrides={"filters": "a&b<c>d U bayes; pass-all U"}
        )
        out = tmp_path / "cli-out"
        for argv in (["run", str(path), "-o", str(out)], ["report", str(out)]):
            assert main(argv) == 0
            svg = ElementTree.fromstring((out / "farfrr.svg").read_bytes())
            labels = {t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")}
            assert {"a&b<c>d (U)", "pass-all (U)"} <= labels, argv

    def test_report_verb_reports_bad_run_directories(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        short = tmp_path / "short"
        short.mkdir()
        (short / "results.csv").write_text(
            "filter,level,n_spam,n_ham,sh,hs,hh,wrapper_errors\n"
            "pass-all,U,4,6,4,0,6,0\n"
        )
        bad_count = tmp_path / "bad-count"
        bad_count.mkdir()
        (bad_count / "results.csv").write_text(
            "filter,level,n_spam,n_ham,ss,sh,hs,hh,wrapper_errors\n"
            "pass-all,U,4,6,0,x,0,6,0\n"
        )
        for rundir, expect in (
            (empty, str(empty / "results.csv")),
            (short, "no 'ss' column"),
            (bad_count, "results.csv, line 2: invalid literal"),
        ):
            assert main(["report", str(rundir)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and expect in err, err
            assert err.count("\n") == 1

    def test_calibrate_verb_writes_config(self, tmp_path, scenario_builder, capsys):
        path = scenario_builder(
            tmp_path,
            sim_overrides={
                "n_users": 50, "n_spammers": 2, "burst_rate": 25,
                "spammer_db_size": 25, "target_spam_fraction": 0.3,
            },
        )
        out_cfg = tmp_path / "calibrated.cfg"
        assert main(["calibrate", str(path), "-o", str(out_cfg)]) == 0
        assert "activation_prob" in capsys.readouterr().out
        from spamlab.trafficgen import load_sim_config

        calibrated = load_sim_config(out_cfg)
        assert 0 < calibrated.activation_prob <= 1.0

    def test_run_verb_reports_config_errors(self, tmp_path, scenario_builder, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("name = broken\n")
        no_sim = scenario_builder(
            tmp_path / "no-sim", scenario_overrides={"sim": "absent.cfg"}
        )
        binary = scenario_builder(tmp_path / "binary")
        with open(binary, "ab") as fh:
            fh.write(b"name = \xff\n")
        negative = scenario_builder(
            tmp_path / "negative", sim_overrides={"spammer_db_size": -5}
        )
        no_spam = scenario_builder(
            tmp_path / "no-spam",
            sim_overrides={"activation_prob": 0.001},
            scenario_overrides={"training_steps": 3},
        )
        untrained = scenario_builder(
            tmp_path / "untrained",
            scenario_overrides={"filters": "pass-all U", "eval_steps": 2},
        )
        cases = [
            ("run", bad, "missing key"),
            ("run", tmp_path / "missing.cfg", "missing.cfg"),
            ("run", no_sim, "absent.cfg"),
            ("run", binary, str(binary)),
            ("calibrate", binary, str(binary)),
            ("run", negative, "spammer_db_size"),
            ("calibrate", negative, "spammer_db_size"),
            ("run", no_spam, "filter bayes: the training stream has no spam;"),
            # -o names a file: the run directory cannot be made
            ("run", untrained, str(untrained), untrained),
        ]
        out = tmp_path / "out"
        for verb, path, expect, *target in cases:
            target = target[0] if target else out
            assert main([verb, str(path), "-o", str(target)]) == 1, (verb, path)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and expect in err, err
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, expect",
        [
            ({"ham_corpus": "corpora/absent"},
             "no ham corpus directory at {root}/corpora/absent"),
            ({"ham_corpus": "sim.cfg"}, "no ham corpus directory at {root}/sim.cfg"),
            ({"ham_corpus": "corpora/empty-ham"},
             "gamma corpus has no messages: {root}/corpora/empty-ham/gamma"),
            ({"spam_corpus": "corpora/absent"},
             "spam corpus not found: {root}/corpora/absent"),
            ({"spam_corpus": "corpora/empty-ham/gamma"},
             "spam corpus has no messages: {root}/corpora/empty-ham/gamma"),
        ],
        ids=["ham-missing", "ham-is-a-file", "ham-topic-empty", "spam-missing",
             "spam-empty"],
    )
    def test_run_verb_reports_corpus_errors(
        self, tmp_path, scenario_builder, capsys, overrides, expect
    ):
        path = scenario_builder(tmp_path, scenario_overrides=overrides)
        (tmp_path / "corpora" / "empty-ham" / "gamma").mkdir(parents=True)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {expect.format(root=tmp_path)}\n"
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="no AF_UNIX")
    def test_run_verb_reports_an_unreadable_corpus(
        self, tmp_path, scenario_builder, capsys, monkeypatch
    ):
        path = scenario_builder(
            tmp_path, scenario_overrides={"spam_corpus": "spam.sock"}
        )
        # a socket exists but cannot be opened; bound by a relative name, as
        # a socket path must be short
        monkeypatch.chdir(tmp_path)
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind("spam.sock")
            out = tmp_path / "out"
            assert main(["run", str(path), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        expect = f"error: spam corpus cannot be read: {tmp_path / 'spam.sock'}: "
        assert err.startswith(expect) and err.count("\n") == 1, err
        assert not out.exists()

    def test_run_verb_reports_an_unlistable_ham_corpus(
        self, tmp_path, scenario_builder, capsys, monkeypatch
    ):
        # what a user without read permission on the directory sees; root
        # may list any directory, so the refusal is patched in
        path = scenario_builder(tmp_path)

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "iterdir", denied)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 1
        root = tmp_path / "corpora" / "ham"
        assert capsys.readouterr().err == (
            f"error: ham corpus cannot be read: {root}: Permission denied\n"
        )
        assert not out.exists()

    def test_module_entry_point(self, tmp_path):
        src = Path(evalcli.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "spamlab", "report", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def bad_scenario(self, tmp_path, scenario_builder, overrides, extra):
        sim = {k: v for k, v in overrides.items() if k in DEFAULT_SIM}
        scenario = {k: v for k, v in overrides.items() if k not in sim}
        path = scenario_builder(
            tmp_path,
            sim_overrides=sim,
            scenario_overrides={"training_steps": 5, "eval_steps": 5, **scenario},
        )
        with open(path, "a") as fh:
            fh.write(extra)
        return path

    @pytest.mark.parametrize(
        "overrides, extra, expect", list(BAD_VALUES.values()), ids=list(BAD_VALUES)
    )
    def test_run_verb_reports_bad_values(
        self, tmp_path, scenario_builder, capsys, overrides, extra, expect
    ):
        path = self.bad_scenario(tmp_path, scenario_builder, overrides, extra)
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expect in err, err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides, extra, expect",
        [case for id_, case in BAD_VALUES.items() if id_ not in RUN_ONLY],
        ids=[id_ for id_ in BAD_VALUES if id_ not in RUN_ONLY],
    )
    def test_calibrate_verb_reports_what_run_does(
        self, tmp_path, scenario_builder, capsys, overrides, extra, expect
    ):
        """Every config error that run reports, calibrate reports too;
        the RUN_ONLY cases are found only by running."""
        path = self.bad_scenario(tmp_path, scenario_builder, overrides, extra)
        out = tmp_path / "calibrated.cfg"
        assert main(["calibrate", str(path), "-o", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expect in err, err
        assert err.count("\n") == 1
