"""Partition-based distributed frequent pattern mining (Savasere et al.).

Two phases, each a distributed job separated by a global barrier:

1. **Local mining** — every partition mines its locally frequent
   patterns at the global (relative) support. Any globally frequent
   pattern is locally frequent in at least one partition, so the union
   of phase-1 outputs is a complete candidate set.
2. **Global pruning** — every partition counts the candidate union over
   its own records; summed counts against the global threshold remove
   the false positives.

The false-positive count (|candidate union| − |globally frequent|) is
the skew indicator the paper highlights: representative (stratified)
partitions produce few false positives, skewed partitions many — and
phase 2's cost is proportional to the candidate count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.cluster.engines import ExecutionEngine, JobResult
from repro.workloads.fpm.apriori import (
    AprioriWorkload,
    CandidateCountWorkload,
    Pattern,
)


@dataclass
class DistributedMiningResult:
    """Outcome of the two-phase distributed mining job."""

    frequent: dict[Pattern, int]
    candidates: set[Pattern]
    local_job: JobResult
    count_job: JobResult

    @property
    def makespan_s(self) -> float:
        """Total job time: the two phases are barrier-separated."""
        return self.local_job.makespan_s + self.count_job.makespan_s

    @property
    def total_dirty_energy_j(self) -> float:
        return self.local_job.total_dirty_energy_j + self.count_job.total_dirty_energy_j

    @property
    def total_energy_j(self) -> float:
        return self.local_job.total_energy_j + self.count_job.total_energy_j

    @property
    def false_positives(self) -> int:
        return len(self.candidates) - len(self.frequent)


@dataclass
class SavasereJob:
    """Coordinator for the two-phase algorithm on a given engine."""

    engine: ExecutionEngine
    min_support: float
    max_len: int | None = None
    #: Kernel for both phases: ``"auto"`` (the fastest available tier),
    #: a bitmap tier (``"numpy"``, ``"native"``) or ``"reference"``
    #: — outputs are bit-identical whichever tier runs.
    kernel: str = "auto"

    def run(
        self,
        partitions: Sequence[Sequence[Any]],
        assignment: Sequence[int] | None = None,
    ) -> DistributedMiningResult:
        """Run both phases over the given partition layout."""
        total = sum(len(p) for p in partitions)
        if total == 0:
            raise ValueError("cannot mine an empty dataset")

        local = AprioriWorkload(
            min_support=self.min_support, max_len=self.max_len, kernel=self.kernel
        )
        local_job = self.engine.run_job(local, partitions, assignment)
        candidates: set[Pattern] = local_job.merged_output

        counter = CandidateCountWorkload(
            candidates=sorted(candidates),
            min_support=self.min_support,
            total_transactions=total,
            kernel=self.kernel,
        )
        # The global scan starts after the phase-1 barrier, so its energy
        # is billed against the later trace window.
        count_job = self.engine.run_job(
            counter, partitions, assignment, start_offset_s=local_job.makespan_s
        )
        frequent: dict[Pattern, int] = count_job.merged_output

        return DistributedMiningResult(
            frequent=frequent,
            candidates=candidates,
            local_job=local_job,
            count_job=count_job,
        )
