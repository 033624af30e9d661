"""The workload catalogue is the one home of what a named workload is:
the service, the CLI and the paper experiments must all read it."""

import pathlib

import pytest

import repro
from repro.bench.harness import StrategyRunner
from repro.cli import _runner, build_parser, main
from repro.core.strategies import ALPHA_COMPRESSION, ALPHA_FPM
from repro.data.datasets import DATASET_KINDS, DATASET_NAMES, load_dataset
from repro.service.jobs import (
    MINING_WORKLOADS,
    SERVICE_WORKLOADS,
    JobSpec,
    build_workload,
    default_placement,
)
from repro.workloads.catalog import WORKLOADS, paper_strategies

SUPPORT = 0.3
PAIRS = [(w, d) for w in WORKLOADS for d in DATASET_NAMES]
CLI_COMMANDS = ("compare", "frontier", "profile")


def config(workload):
    """What tells two workload instances apart: the class, the report
    name and the configured miner or codec."""
    inner = getattr(workload, "miner", None) or workload.codec
    return type(workload), workload.name, type(inner), vars(inner)


def cli_args(command, workload, dataset):
    argv = [command, "--dataset", dataset, "--scale", "0.1", "--support", str(SUPPORT)]
    return argv + (["--workload", workload] if workload else [])


def accepted(workload, dataset):
    return DATASET_KINDS[dataset] in WORKLOADS[workload].dataset_kinds


class TestEntries:
    def test_every_service_workload_has_a_complete_entry(self):
        assert SERVICE_WORKLOADS == tuple(WORKLOADS)
        assert MINING_WORKLOADS == ("apriori", "eclat", "fpgrowth", "treemining")
        for name, spec in WORKLOADS.items():
            assert spec.name == name
            assert spec.dataset_kinds and set(spec.dataset_kinds) <= {"tree", "graph", "text"}
            assert spec.placement == default_placement(name)
            assert spec.placement == ("representative" if spec.mining else "similar")
            assert spec.alpha == (ALPHA_FPM if spec.mining else ALPHA_COMPRESSION)
            assert spec.unit_rate > 0
            assert spec.build(SUPPORT).two_phase == spec.mining
            # Some registry dataset can run it.
            assert any(accepted(name, d) for d in DATASET_NAMES)

    def test_every_dataset_kind_has_one_default_workload(self):
        defaults = [s.default_for for s in WORKLOADS.values() if s.default_for]
        assert sorted(defaults) == sorted(set(DATASET_KINDS.values()))
        for spec in WORKLOADS.values():
            assert spec.default_for is None or spec.default_for in spec.dataset_kinds

    def test_paper_strategies(self):
        for name, spec in WORKLOADS.items():
            strategies = paper_strategies(name)
            assert [s.name for s in strategies] == [
                "Stratified", "Het-Aware", "Het-Energy-Aware",
            ]
            assert [s.alpha for s in strategies] == [None, 1.0, spec.alpha]
            assert {s.placement for s in strategies} == {spec.placement}

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_dataset_kinds_match_the_loader(self, name):
        assert DATASET_KINDS[name] == load_dataset(name, size_scale=0.1).kind


class TestEveryFrontEndRunsTheCatalogueWorkload:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_same_workload_and_unit_rate(self, name):
        expected = config(build_workload(name, SUPPORT))
        assert config(WORKLOADS[name].build(SUPPORT)) == expected
        dataset = next(d for d in DATASET_NAMES if accepted(name, d))
        # bench/experiments.py builds its runners this way ...
        runner = StrategyRunner.for_workload(
            load_dataset(dataset, size_scale=0.1), name, SUPPORT
        )
        assert config(runner.workload_factory()) == expected
        assert runner.unit_rate == WORKLOADS[name].unit_rate
        # ... and so does the CLI, from its parsed options.
        args = build_parser().parse_args(cli_args("compare", name, dataset))
        cli_runner, cli_name = _runner(args)
        assert cli_name == name
        assert config(cli_runner.workload_factory()) == expected
        assert cli_runner.unit_rate == WORKLOADS[name].unit_rate

    def test_cli_workload_choices_are_the_catalogue_keys(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        for command in CLI_COMMANDS + ("submit",):
            option = next(
                a for a in sub.choices[command]._actions if a.dest == "workload"
            )
            assert tuple(option.choices) == tuple(WORKLOADS)

    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    def test_cli_default_workload_is_the_catalogues(self, dataset):
        args = build_parser().parse_args(cli_args("compare", None, dataset))
        _cli_runner, name = _runner(args)
        assert WORKLOADS[name].default_for == DATASET_KINDS[dataset]

    def test_front_ends_construct_no_workloads(self):
        """They name workloads; only the catalogue constructs them."""
        src = pathlib.Path(repro.__file__).parent
        for module in ("cli.py", "bench/experiments.py", "service/jobs.py"):
            text = (src / module).read_text(encoding="utf-8")
            assert "repro.workloads.fpm" not in text, module
            assert "repro.workloads.compression" not in text, module


class TestOneDatasetKindRule:
    """An invalid (workload, dataset kind) pair is rejected by the
    service and by the CLI, with the same sentence."""

    @pytest.mark.parametrize("workload,dataset", PAIRS)
    def test_service_and_cli_agree(self, workload, dataset):
        spec = JobSpec(workload=workload, dataset=dataset)
        args = build_parser().parse_args(cli_args("compare", workload, dataset))
        if accepted(workload, dataset):
            spec.validate()
            _runner(args)
            return
        with pytest.raises(ValueError) as service:
            spec.validate()
        assert "cannot run on" in str(service.value)
        for command in CLI_COMMANDS:
            with pytest.raises(SystemExit) as cli:
                main(cli_args(command, workload, dataset))
            assert str(cli.value) == str(service.value), command
