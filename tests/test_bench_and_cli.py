"""Tests for the benchmark harness (fitting, reporting, experiments) and the CLI."""

import csv
import io
import json
import math

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    ablation_blocking,
    churn,
    congestion_rounds,
    fault_tolerance,
    fig1_skiplist,
    fig2_skipweb_levels,
    lemma1_list,
    range_queries,
    theorem2_onedim,
    throughput,
    topology_comparison,
)
from repro.bench.fitting import GROWTH_LAWS, best_growth_law, fit_scale, growth_ratio
from repro.bench.reporting import format_series, format_table
from repro.cli import build_parser, main


class TestFitting:
    def test_fit_scale_recovers_constant(self):
        sizes = [64, 256, 1024, 4096]
        values = [3.0 * math.log2(n) for n in sizes]
        fit = fit_scale(sizes, values, "log n")
        assert fit.scale == pytest.approx(3.0)
        assert fit.relative_error < 1e-9
        assert fit.predict(64) == pytest.approx(values[0])

    def test_best_growth_law_identifies_logarithm(self):
        sizes = [64, 256, 1024, 4096, 16384]
        values = [2.0 * math.log2(n) + 0.5 for n in sizes]
        assert best_growth_law(sizes, values).law == "log n"

    def test_best_growth_law_identifies_constant(self):
        sizes = [64, 256, 1024, 4096]
        values = [5.1, 4.9, 5.0, 5.2]
        assert best_growth_law(sizes, values).law == "1"

    def test_best_growth_law_identifies_log_squared(self):
        sizes = [64, 256, 1024, 4096]
        values = [0.5 * math.log2(n) ** 2 for n in sizes]
        assert best_growth_law(sizes, values).law == "log^2 n"

    def test_all_growth_laws_are_positive(self):
        for name, law in GROWTH_LAWS.items():
            assert law(1024) > 0, name

    def test_fit_scale_validates_input(self):
        with pytest.raises(ValueError):
            fit_scale([], [], "log n")

    def test_growth_ratio(self):
        assert growth_ratio([1, 2], [2.0, 6.0]) == pytest.approx(3.0)


class TestReporting:
    def test_format_table_aligns_columns(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 123, "bb": "z"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        text = format_series([1, 2], [0.5, 1.5], value_label="Q")
        assert "Q" in text and "1.5" in text


class TestExperiments:
    def test_registry_complete(self):
        expected = {
            "table1",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "lemma1",
            "lemma4",
            "theorem2-multidim",
            "theorem2-onedim",
            "range-queries",
            "updates",
            "ablation-blocking",
            "throughput",
            "congestion-rounds",
            "churn",
            "topology",
            "faults",
        }
        assert set(EXPERIMENTS) == expected

    def test_topology_rows_keep_messages_invariant(self):
        rows = topology_comparison(sizes=(32,), ops=8, seed=0)
        by_structure: dict = {}
        for row in rows:
            by_structure.setdefault(row["structure"], {})[row["topology"]] = row
        assert len(by_structure) == 5  # four skip-webs + Chord
        for cells in by_structure.values():
            assert set(cells) == {"flat", "clustered", "geo"}
            # Topologies reprice the links, never the routing: message
            # and round counts are identical across the three layouts.
            assert len({cell["msgs"] for cell in cells.values()}) == 1
            assert len({cell["rounds"] for cell in cells.values()}) == 1
            flat = cells["flat"]
            assert flat["latency"] == flat["msgs"]
            assert cells["clustered"]["latency"] > flat["latency"]
            assert cells["clustered"]["max_link_round_load"] >= flat["max_link_round_load"]

    def test_faults_rows_show_monotone_degradation(self):
        rows = fault_tolerance(sizes=(32,), ops=24, seed=0, drop_rates=(0.0, 0.2))
        by_structure: dict = {}
        for row in rows:
            by_structure.setdefault(row["structure"], {})[row["drop_rate"]] = row
        assert len(by_structure) == 5  # four skip-webs + Chord
        for cells in by_structure.values():
            clean, lossy = cells[0.0], cells[0.2]
            # Rate 0 is the control: everything delivered, no retries.
            assert clean["delivered_ratio"] >= 0.99
            assert clean["retries"] == 0 and clean["dropped"] == 0
            # Loss degrades monotonically and visibly costs retries.
            assert lossy["dropped"] > 0
            assert lossy["delivered_ratio"] <= clean["delivered_ratio"]
            assert lossy["retry_overhead"] > 0
            # Drop rules are query-scoped, so the self-healing (repair)
            # traffic is invariant across rates.
            assert lossy["repair_msgs"] == clean["repair_msgs"]

    def test_fig1_rows_show_log_growth_and_linear_space(self):
        rows = fig1_skiplist(sizes=(128, 1024), queries_per_size=60, seed=1)
        assert rows[1]["search_hops_mean"] <= rows[0]["search_hops_mean"] * 3
        assert rows[1]["node_copies_per_key"] < 4

    def test_fig2_levels_shrink_towards_the_top(self):
        rows = fig2_skipweb_levels(n=128, queries=20, seed=1)
        by_level = {row["level"]: row for row in rows}
        assert by_level[0]["sets"] == 1
        assert by_level[0]["largest_set"] == 128
        top = max(by_level)
        assert by_level[top]["largest_set"] <= 12

    def test_lemma1_constant_independent_of_n(self):
        rows = lemma1_list(sizes=(64, 512), trials=6, queries_per_size=15, seed=2)
        assert rows[1]["mean_conflicts"] <= rows[0]["mean_conflicts"] * 2.5

    def test_theorem2_onedim_bucket_beats_plain(self):
        rows = theorem2_onedim(sizes=(256,), memory_sizes=(64,), queries_per_size=20, seed=3)
        plain = next(r for r in rows if r["structure"] == "skip-web 1-d")
        bucket = next(r for r in rows if r["structure"].startswith("bucket"))
        assert bucket["Q_mean"] <= plain["Q_mean"]

    def test_ablation_blocking_rows(self):
        rows = ablation_blocking(n=96, memory_sizes=(16,), queries=10, seed=4)
        policies = {row["policy"] for row in rows}
        assert any(p.startswith("arbitrary") for p in policies)
        assert any(p.startswith("bucket") for p in policies)

    def test_throughput_rows_cover_three_structures(self):
        rows = throughput(sizes=(48,), ops_per_size=40, seed=5)
        assert [row["structure"] for row in rows] == [
            "skip-web 1-d",
            "quadtree skip-web",
            "trie skip-web",
        ]
        for row in rows:
            assert row["rounds"] > 0
            assert row["msgs_per_op"] > 0
            assert row["C_round_max"] >= 1

    def test_churn_rows_cover_all_instantiations_and_chord(self):
        rows = churn(sizes=(32,), events=3, ops_per_phase=12, seed=7)
        assert [row["structure"] for row in rows] == [
            "skip-web 1-d",
            "quadtree skip-web",
            "trie skip-web",
            "trapezoid skip-web",
            "Chord DHT",
        ]
        for row in rows:
            assert row["joins"] + row["leaves"] + row["crashes"] == 3
            assert row["failed"] == 0
            assert row["repair_msgs_per_event"] >= 0
            assert row["C_round_max"] >= 1

    def test_churn_survives_tiny_sizes_via_join_fallback(self):
        # A schedule that draws a retirement at the min-hosts floor falls
        # back to a join instead of aborting the experiment.
        rows = churn(sizes=(4,), events=6, ops_per_phase=8, seed=1)
        for row in rows:
            assert row["joins"] + row["leaves"] + row["crashes"] == 6
            assert row["failed"] == 0
            assert row["hosts_end"] >= 2

    def test_range_queries_rows_cover_instantiations_and_chord(self):
        rows = range_queries(sizes=(32,), target_ks=(4,), queries_per_size=3, seed=8)
        structures = [row["structure"] for row in rows]
        assert structures == [
            "skip-web 1-d",
            "bucket skip-web (M=32)",
            "quadtree skip-web",
            "trie skip-web",
            "trapezoid skip-web",
            "skip graph (baseline)",
            "Chord DHT",
        ]
        for row in rows:
            if row["structure"] == "Chord DHT":
                assert row["supported"] == "no"
                continue
            assert row["supported"] == "yes"
            assert row["k_mean"] >= 1
            # Immediate and batched runs of the same queries charge the
            # same messages per operation.
            assert row["msgs_per_op"] == row["batched_msgs_per_op"]
            assert row["rounds"] >= 1

    def test_congestion_rounds_reports_bound_ratio(self):
        rows = congestion_rounds(sizes=(32, 64), queries_per_host=1, seed=6)
        assert [row["n"] for row in rows] == [32, 64]
        for row in rows:
            assert row["ops"] == row["hosts"]
            assert row["max_host_round_load"] >= 1
            assert row["ratio"] == pytest.approx(
                row["max_host_round_load"] / row["logn_loglogn"], abs=0.01
            )


class TestCli:
    def test_parser_lists_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.experiment == "list"

    def test_cli_list_runs(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "fig3" in output
        assert "throughput" in output and "congestion-rounds" in output

    def test_cli_list_flag_prints_registry(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name, (_function, description) in EXPERIMENTS.items():
            assert name in output
            assert description in output

    def test_cli_list_flag_supports_formats(self, capsys):
        assert main(["--list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [row["experiment"] for row in payload["rows"]]
        assert names == sorted(EXPERIMENTS)
        assert "range-queries" in names

    def test_cli_requires_experiment_or_list(self):
        with pytest.raises(SystemExit):
            main([])

    def test_cli_rejects_list_flag_with_experiment(self):
        with pytest.raises(SystemExit):
            main(["table1", "--list"])

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_cli_json_format_and_sizes(self, capsys):
        assert main(["lemma1", "--sizes", "48", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "lemma1"
        assert [row["n"] for row in payload["rows"]] == [48]

    def test_cli_csv_format(self, capsys):
        assert main(["congestion-rounds", "--sizes", "32", "--format", "csv"]) == 0
        reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
        rows = list(reader)
        assert rows
        assert rows[0]["experiment"] == "congestion-rounds"
        assert rows[0]["n"] == "32"
        assert "max_host_round_load" in reader.fieldnames

    def test_cli_sizes_applies_to_scalar_n_experiments(self, capsys):
        assert main(["fig2", "--sizes", "32,64", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # fig2 takes a single n; the first size is used.
        assert payload["rows"][-1]["largest_set"] == 32

    def test_cli_rejects_bad_sizes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--sizes", "12,-3"])

    def test_cli_topology_flag_implies_the_experiment(self, capsys):
        assert main(["--topology", "clustered", "--sizes", "24", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "topology"
        # Flat is always included as the comparison baseline.
        assert {row["topology"] for row in payload["rows"]} == {"flat", "clustered"}

    def test_cli_topology_flag_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--topology", "mesh"])
        with pytest.raises(SystemExit):
            main(["table1", "--topology", "geo"])

    def test_cli_faults_flag_implies_the_experiment(self, capsys):
        assert main(["--faults", "0.2", "--sizes", "24", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "faults"
        # Rate 0 is always included as the comparison baseline.
        assert {row["drop_rate"] for row in payload["rows"]} == {0.0, 0.2}

    def test_cli_faults_flag_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--faults", "1.5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--faults", "lots"])
        with pytest.raises(SystemExit):
            main(["table1", "--faults", "0.1"])

    def test_cli_structures_lists_capability_columns(self, capsys):
        # JSON rows carry the capability flags as real booleans, not the
        # "yes"/"no" strings the human-facing table renders.
        assert main(["structures", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"]
        for row in payload["rows"]:
            for column in ("range", "updates", "bulk_load", "durable"):
                assert isinstance(row[column], bool)
        chord = next(row for row in payload["rows"] if row["structure"] == "chord")
        assert chord["range"] is False
        assert chord["durable"] is True

    def test_cli_structures_table_renders_yes_no(self, capsys):
        assert main(["structures"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out and "no" in out
        assert "True" not in out and "False" not in out

    def test_cli_structures_csv_round_trips_booleans(self, capsys):
        assert main(["structures", "--format", "csv"]) == 0
        reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
        rows = list(reader)
        assert rows
        for row in rows:
            for column in ("range", "updates", "bulk_load", "durable"):
                assert row[column] in ("True", "False")

    def test_cli_serve_and_hammer_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--items", "32", "--ready-file", "r.txt"]
        )
        assert args.experiment == "serve"
        assert args.port == 0 and args.items == 32
        args = build_parser().parse_args(
            [
                "hammer",
                "--url",
                "http://127.0.0.1:9",
                "--sessions",
                "2",
                "--ops",
                "5",
                "--mix",
                "read",
                "--expect-ok",
            ]
        )
        assert args.experiment == "hammer"
        assert args.url == "http://127.0.0.1:9"
        assert args.sessions == 2 and args.ops == 5 and args.expect_ok
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hammer", "--mix", "chaotic"])


class TestCliFormatRoundTrip:
    """--format json/csv carry exactly the rows the table format prints."""

    # Experiments with distinct row shapes; all sizes-parameterised so the
    # round-trip runs at toy sizes.
    CASES = (
        ("lemma1", {"sizes": (48,)}),
        ("congestion-rounds", {"sizes": (32,)}),
        ("churn", {"sizes": (24,)}),
    )

    @staticmethod
    def _expected_rows(name, sizes):
        function, _description = EXPERIMENTS[name]
        return function(sizes=sizes, seed=0)

    @pytest.mark.parametrize("name,kwargs", CASES)
    def test_json_rows_match_table_data(self, capsys, name, kwargs):
        sizes = kwargs["sizes"]
        expected = self._expected_rows(name, sizes)
        argv = [name, "--sizes", ",".join(str(s) for s in sizes), "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == name
        assert payload["rows"] == expected

    @pytest.mark.parametrize("name,kwargs", CASES)
    def test_csv_rows_match_table_data(self, capsys, name, kwargs):
        sizes = kwargs["sizes"]
        expected = self._expected_rows(name, sizes)
        argv = [name, "--sizes", ",".join(str(s) for s in sizes), "--format", "csv"]
        assert main(argv) == 0
        reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
        parsed = list(reader)
        assert len(parsed) == len(expected)
        for parsed_row, expected_row in zip(parsed, expected):
            assert parsed_row.pop("experiment") == name
            # CSV stringifies every value; compare per cell after the same
            # coercion the writer applied.
            assert list(parsed_row) == [str(column) for column in expected_row]
            for column, value in expected_row.items():
                assert parsed_row[str(column)] == str(value)
