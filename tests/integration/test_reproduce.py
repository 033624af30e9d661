"""``repro reproduce`` writes the committed paper artefacts byte for byte.

It runs :data:`repro.bench.experiments.ARTEFACTS`, the table the
figure/table benches read too. Here the table is cut to its two
cheapest entries (Table I and Fig. 3); ``make results-check`` runs all
seven through the CLI and diffs them against ``benchmarks/results/``.
"""

import pathlib

import pytest

from repro.bench import experiments
from repro.bench.reproduce import reproduce_all
from repro.cli import main

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
CHEAP = ("table1_datasets", "fig3_text_mining")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("artefacts")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            experiments, "ARTEFACTS", {n: experiments.ARTEFACTS[n] for n in CHEAP}
        )
        written = reproduce_all(out)
    return out, written


class TestReproduceAll:
    def test_table_names_the_seven_committed_artefacts(self):
        assert len(experiments.ARTEFACTS) == 7
        for name in experiments.ARTEFACTS:
            assert (RESULTS / f"{name}.txt").is_file(), name

    def test_all_artefacts_written(self, outputs):
        out, written = outputs
        assert written == list(CHEAP)
        assert sorted(f.name for f in out.glob("*.txt")) == sorted(
            f"{name}.txt" for name in CHEAP
        )

    def test_writes_the_committed_text_byte_for_byte(self, outputs):
        out, _ = outputs
        for name in CHEAP:
            assert (out / f"{name}.txt").read_bytes() == (
                RESULTS / f"{name}.txt"
            ).read_bytes(), name

    def test_csvs_written_for_row_experiments(self, outputs):
        out, _ = outputs
        csv = (out / "fig3_text_mining.csv").read_text().splitlines()
        assert csv[0].startswith("dataset,")
        assert len(csv) == 1 + 9  # 3 partition counts × 3 strategies
        assert not (out / "table1_datasets.csv").exists()


class TestReproduceCli:
    def test_cli_command(self, tmp_path, capsys, monkeypatch):
        import repro.bench.reproduce as mod

        called = []

        def fake(out):
            called.append(out)
            return ["x"]

        monkeypatch.setattr(mod, "reproduce_all", fake)
        out = str(tmp_path / "r")
        assert main(["reproduce", "--out", out]) == 0
        assert called == [out]
        assert "wrote 1 artefacts" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--scale", "--seed"])
    def test_no_scaled_reproduce(self, tmp_path, flag):
        # The command means the committed artefacts; a scaled run goes
        # through the experiment functions' ``size_scale``.
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--out", str(tmp_path), flag, "1"])
        assert exc.value.code == 2
