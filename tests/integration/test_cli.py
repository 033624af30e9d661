"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.dataset == "rcv1"
        assert args.partitions == 8
        assert args.workload is None

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--dataset", "enron"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workload", "zstd"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        for name in ("swissprot", "treebank", "uk", "arabic", "rcv1"):
            assert name in out

    def test_compare(self, capsys):
        rc = main(
            [
                "compare",
                "--dataset",
                "rcv1",
                "--scale",
                "0.25",
                "--support",
                "0.2",
                "--partitions",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Het-Aware" in out
        assert "Stratified" in out
        assert "false_positives" in out

    def test_compare_compression(self, capsys):
        rc = main(
            [
                "compare",
                "--dataset",
                "uk",
                "--scale",
                "0.2",
                "--partitions",
                "4",
            ]
        )
        assert rc == 0
        assert "compression_ratio" in capsys.readouterr().out

    def test_compare_trace_is_one_stream(self, capsys, tmp_path):
        # The trace is the whole record: folding it rebuilds the live
        # registry exactly, and no metrics file is written beside it.
        import repro.obs as obs
        from repro.obs.fold import fold_span
        from repro.obs.metrics import MetricsRegistry

        trace = tmp_path / "run.trace.jsonl"
        try:
            rc = main(
                [
                    "compare",
                    "--dataset",
                    "rcv1",
                    "--scale",
                    "0.25",
                    "--support",
                    "0.2",
                    "--partitions",
                    "4",
                    "--trace",
                    str(trace),
                ]
            )
            assert rc == 0
            live = obs.metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.trace.jsonl", "run.trace.jsonl.chrome.json"
        ]
        folded = MetricsRegistry()
        for span in obs.read_spans(trace)[1]:
            fold_span(folded, span)
        assert any(k.startswith("repro_jobs_total{") for k in live)
        assert folded.snapshot() == live
        assert main(["obs", "report", str(trace)]) == 0
        assert "per-node tasks & energy" in capsys.readouterr().out

    def test_frontier(self, capsys):
        rc = main(
            [
                "frontier",
                "--dataset",
                "rcv1",
                "--scale",
                "0.25",
                "--support",
                "0.2",
                "--partitions",
                "4",
                "--alphas",
                "1.0,0.99,0.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "base" in out
        assert "B" in out  # baseline marker on the ASCII plot

    def test_profile(self, capsys):
        rc = main(
            [
                "profile",
                "--dataset",
                "rcv1",
                "--scale",
                "0.25",
                "--support",
                "0.2",
                "--partitions",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "f(x) =" in out
        assert "dirty power" in out

    def test_frontier_compression_workload(self, capsys):
        rc = main(
            [
                "frontier",
                "--dataset",
                "uk",
                "--scale",
                "0.15",
                "--partitions",
                "4",
                "--alphas",
                "1.0,0.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "frontier: uk" in out

    def test_reproduce_help_listed(self):
        parser = build_parser()
        args = parser.parse_args(["reproduce", "--out", "/tmp/x"])
        assert args.out == "/tmp/x"

    def test_user_file_dataset(self, capsys, tmp_path):
        from repro.data.io import save_transactions

        path = tmp_path / "mine.dat"
        save_transactions([[1, 2, 3], [1, 2], [2, 3]] * 30, path)
        rc = main(
            [
                "compare",
                "--file",
                str(path),
                "--kind",
                "text",
                "--support",
                "0.5",
                "--partitions",
                "4",
            ]
        )
        assert rc == 0
        assert "mine" in capsys.readouterr().out

    def test_file_requires_kind(self, tmp_path):
        path = tmp_path / "mine.dat"
        path.write_text("1 2\n")
        with pytest.raises(SystemExit):
            main(["compare", "--file", str(path)])

    def test_tree_dataset_wrong_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "compare",
                    "--dataset",
                    "swissprot",
                    "--workload",
                    "apriori",
                    "--scale",
                    "0.2",
                ]
            )
