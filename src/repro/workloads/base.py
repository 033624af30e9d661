"""Workload protocol shared by all analytics tasks.

A workload consumes one partition's records and reports, besides its
output, an abstract **work-unit** count. Work units measure the
payload-dependent cost the paper's framework targets: for frequent
pattern mining they grow with the candidate-pattern blowup, for
compression with the bytes pushed through the coder. The execution
engines turn work units into emulated runtime via each node's speed
factor, so a skewed partition genuinely slows its host node down.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class WorkloadResult:
    """Outcome of running a workload on one partition.

    Attributes
    ----------
    work_units:
        Abstract processing cost of the partition (non-negative).
    output:
        Workload-specific payload (e.g. locally frequent patterns, or
        compressed bytes).
    stats:
        Free-form diagnostics (candidate counts, compressed sizes, …).
    """

    work_units: float
    output: Any = None
    stats: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.work_units < 0:
            raise ValueError("work_units must be non-negative")


class Workload(abc.ABC):
    """One per-partition analytics task.

    Subclasses must be picklable (the process-pool engine ships them to
    workers) and deterministic given the same records.
    """

    #: Human-readable workload name (used in reports).
    name: str = "workload"

    #: True for local miners whose merged output is only a candidate
    #: set: the framework then runs a second, candidate-counting phase
    #: over :meth:`count_records` of each partition (Savasere). The
    #: rest of that contract is stated by
    #: :class:`~repro.workloads.fpm.apriori.LocalMiningWorkload`.
    two_phase: bool = False

    @abc.abstractmethod
    def run(self, records: Sequence[Any]) -> WorkloadResult:
        """Process one partition and report output + work units."""

    def merge(self, partials: Sequence[WorkloadResult]) -> Any:
        """Combine per-partition outputs into a global answer.

        Default: list of outputs. FPM workloads override this with the
        candidate-union / global-count step of Savasere's algorithm.
        """
        return [p.output for p in partials]

    def count_records(self, partition: Sequence[Any]) -> Sequence[Any]:
        """The transactions phase 2 counts candidates against, for a
        ``two_phase`` workload; by default the records themselves.

        Contract: a per-record map, independent of partition boundaries
        — one transaction (a flat sequence of non-negative ints) per
        record, in order, so ``count_records(a + b) == count_records(a)
        + count_records(b)``. The framework relies on it: it converts
        the whole dataset once, in ``prepare``, passing its encoding
        (:class:`~repro.kvstore.codec.EncodedDataset`), and every
        phase-2 partition is a gather of that. Return the argument
        itself (the same object) when there is nothing to convert.
        """
        return partition
