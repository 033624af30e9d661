"""NONDET: hidden nondeterminism in code whose output feeds measurements.

The reproduction's claims rest on bit-reproducible runs: stratification
must yield the same strata for the same seed, kernels must be
bit-identical to their oracles, and benchmark numbers must be stable
across re-runs. Two constructs quietly break that:

- **Legacy global-state RNG calls.** ``random.random()`` /
  ``np.random.rand()`` and friends draw from interpreter-global streams
  that any import or thread can perturb. The repo standard is an
  explicit seeded generator — ``np.random.default_rng(seed)`` or
  ``random.Random(seed)`` — threaded through call sites.
- **Wall-clock reads in kernel/optimizer code.** ``time.time()`` inside
  a kernel or the Pareto optimizer makes results depend on when they
  ran; timing belongs in the engines and the bench harness, which
  measure *around* the deterministic core.

Flagged: calls through the ``random`` module's global functions
(``random.Random``/``SystemRandom`` instances are fine), names imported
from ``random`` directly (``from random import choice``), legacy
``np.random.*`` global-API calls (``default_rng``/``Generator``/
``SeedSequence``/bit generators are fine), unseeded
``np.random.RandomState()``, and — only inside the kernel/optimizer
module scope — ``time.*``/``datetime.now`` clock reads.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import ModuleChecker, dotted_name
from repro.analysis.findings import Finding
from repro.analysis.project import SourceModule

#: Legacy stdlib-random global functions (module-level state).
_STDLIB_LEGACY = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "betavariate",
    "gammavariate",
    "triangular",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "getrandbits",
    "randbytes",
    "seed",
    "setstate",
    "getstate",
}

#: Legacy numpy global-API functions (np.random.<fn> on the shared state).
_NUMPY_LEGACY = {
    "seed",
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "random_integers",
    "ranf",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "beta",
    "binomial",
    "poisson",
    "exponential",
    "gamma",
    "bytes",
    "get_state",
    "set_state",
}

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

#: Modules where results feed assertions/caches, so clocks are banned.
CLOCK_SCOPE_PREFIXES = ("repro.perf",)
CLOCK_SCOPE_MODULES = (
    "repro.core.optimizer",
    "repro.core.pareto",
    "repro.core.budget",
)


def clock_scoped(name: str) -> bool:
    if name in CLOCK_SCOPE_MODULES:
        return True
    return any(name == p or name.startswith(p + ".") for p in CLOCK_SCOPE_PREFIXES)


class NondetChecker(ModuleChecker):
    rule_id = "NONDET"
    description = (
        "unseeded legacy random/np.random global-state call, or wall-clock "
        "read inside kernel/optimizer code (breaks bit-reproducibility)"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        assert module.tree is not None
        # Names bound by `from random import choice` style imports.
        from_random: set[str] = set()
        random_aliases = {"random"}
        numpy_random_aliases = {"np.random", "numpy.random"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or alias.name)
                    elif alias.name == "numpy.random":
                        numpy_random_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in _STDLIB_LEGACY:
                        from_random.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "numpy",
                "numpy.random",
            ):
                for alias in node.names:
                    if node.module == "numpy" and alias.name == "random":
                        numpy_random_aliases.add(alias.asname or alias.name)
                    elif node.module == "numpy.random" and alias.name in _NUMPY_LEGACY:
                        from_random.add(alias.asname or alias.name)

        in_clock_scope = clock_scoped(module.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            yield from self._check_call(
                module,
                node,
                dotted,
                from_random,
                random_aliases,
                numpy_random_aliases,
                in_clock_scope,
            )

    def _check_call(
        self,
        module: SourceModule,
        node: ast.Call,
        dotted: str,
        from_random: set[str],
        random_aliases: set[str],
        numpy_random_aliases: set[str],
        in_clock_scope: bool,
    ) -> Iterable[Finding]:
        head, _, tail = dotted.rpartition(".")
        if head in random_aliases and tail in _STDLIB_LEGACY:
            yield self.finding(
                module,
                node,
                f"legacy global-state RNG call {dotted}() — use an explicit "
                "seeded random.Random(seed) instance",
            )
        elif not head and dotted in from_random:
            yield self.finding(
                module,
                node,
                f"legacy global-state RNG call {dotted}() (imported from "
                "random) — use an explicit seeded random.Random(seed) instance",
            )
        elif head in numpy_random_aliases and tail in _NUMPY_LEGACY:
            yield self.finding(
                module,
                node,
                f"legacy numpy global-state RNG call {dotted}() — use "
                "np.random.default_rng(seed) and pass the Generator through",
            )
        elif head in numpy_random_aliases and tail == "RandomState" and not (
            node.args or node.keywords
        ):
            yield self.finding(
                module,
                node,
                "unseeded np.random.RandomState() — seed it, or prefer "
                "np.random.default_rng(seed)",
            )
        elif in_clock_scope and dotted in _CLOCK_CALLS:
            yield self.finding(
                module,
                node,
                f"wall-clock read {dotted}() inside kernel/optimizer code — "
                "results here feed assertions and caches; measure time in the "
                "engine/bench layer instead",
            )
