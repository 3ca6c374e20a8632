import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"


def load_same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SAME_OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSameOutputs:
    def test_a_tree_matches_itself(self):
        proc = subprocess.run(
            [sys.executable, str(SAME_OUTPUTS), "--parent", str(ROOT),
             "--change", str(ROOT), "--seeds", "1", "--workloads", "user-bayes"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1] == "0 file(s) differ"
        compared = [line.split()[3] for line in lines[:-1]]
        assert compared == [
            "results.csv", "results.txt", "connections.log", "farfrr.svg", "sim.cfg",
        ]
        assert all(line.endswith(" identical") for line in lines[:-1])

    def test_compare_names_the_file_that_differs(self, tmp_path):
        same_outputs = load_same_outputs()
        for side in ("parent", "change"):
            for rel in [f"out/{name}" for name in same_outputs.OUTPUTS] + ["inputs/sim.cfg"]:
                path = tmp_path / side / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(rel)
        (tmp_path / "change" / "out" / "connections.log").write_text("other")
        result = same_outputs.compare(tmp_path / "parent", tmp_path / "change")
        assert [name for name, same in result if not same] == ["connections.log"]
        assert len(result) == 5

    def test_set_overrides_the_generated_scenario(self, tmp_path):
        same_outputs = load_same_outputs()
        inputs = same_outputs._inputs_module()
        made = inputs.generate(inputs.WORKLOADS["server-bulk"], 1, tmp_path)
        same_outputs.override(inputs, made.scenario_path, [
            same_outputs._setting("level=U"),
            same_outputs._setting("filters = bayes U; volume S"),
            same_outputs._setting("note=a=b"),
        ])
        lines = made.scenario_path.read_text().splitlines()
        assert "level = U" in lines and "level = S" not in lines
        assert "filters = bayes U; volume S" in lines
        assert lines[-1] == "note = a=b"

    def test_set_needs_key_and_value(self):
        proc = subprocess.run(
            [sys.executable, str(SAME_OUTPUTS), "--parent", str(ROOT),
             "--change", str(ROOT), "--seeds", "1", "--set", "level"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "'level' is not KEY=VALUE" in proc.stderr
