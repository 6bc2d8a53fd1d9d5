"""Documentation hygiene: the promised files exist and cross-references hold."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestRequiredDocuments:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/QUERY_LANGUAGE.md",
            "docs/ALGORITHMS.md",
            "docs/EXTENDING.md",
        ],
    )
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text(encoding="utf-8")) > 500, name


class TestCrossReferences:
    def test_design_mentions_every_figure_bench(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for number in range(9, 17):
            assert ("bench_fig%02d" % number) in design, number

    def test_every_referenced_bench_module_exists(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        text += (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for stem in set(re.findall(r"bench_\w+", text)):
            if stem == "bench_output":
                continue  # the captured-results file, not a module
            matches = list((ROOT / "benchmarks").glob(stem + "*.py"))
            assert matches, stem

    def test_every_referenced_example_exists(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for name in set(re.findall(r"examples/(\w+\.py)", readme)):
            assert (ROOT / "examples" / name).exists(), name

    def test_experiments_covers_all_eight_figures(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for number in range(9, 17):
            assert ("Figure %d" % number) in experiments, number

    def test_experiments_tests_exist(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for path in set(re.findall(r"tests/[\w/]+\.py", experiments)):
            assert (ROOT / path).exists(), path


class TestExtendingGuide:
    def test_custom_strategy_example_runs_sharded_unchanged(self):
        """The guide's session-contract strategy runs on both topologies."""
        text = (ROOT / "docs" / "EXTENDING.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        [block] = [b for b in blocks if "class FirstLevel" in b]
        namespace = {}
        exec(compile(block, "EXTENDING.md[FirstLevel]", "exec"), namespace)
        local, scattered = namespace["local"], namespace["scattered"]
        assert [a.relaxation_level for a in local.answers] == [1]
        assert local.shard_rounds == 0
        assert scattered.shard_rounds == 2
