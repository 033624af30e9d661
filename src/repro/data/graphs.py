"""Synthetic webgraphs (UK / Arabic analogs) with host locality.

Records are per-vertex adjacency lists — the unit the paper's graph
pipeline partitions and compresses. Generation follows the structure
WebGraph compression exploits:

- vertices are grouped into **hosts**; ids within a host are contiguous
  (URL-lexicographic ordering in real crawls), so intra-host links have
  small gaps;
- a **copying model**: a new page copies a fraction of the out-links of
  a random earlier page in the same host (link-exchange similarity —
  what reference compression exploits), plus fresh links that are
  mostly intra-host and occasionally global;
- out-degrees are heavy-tailed (lognormal), as in real crawls.

The host of each vertex is its planted stratum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.draws import PCG64Draws


@dataclass(frozen=True)
class WebGraphConfig:
    """Generator knobs for a synthetic webgraph.

    ``intra_host_prob`` controls locality; ``copy_prob`` the fraction of
    links copied from a same-host template page; ``host_skew`` the
    Zipf exponent of host sizes (payload skew across strata).
    """

    num_vertices: int = 3000
    num_hosts: int = 12
    mean_degree: float = 12.0
    degree_sigma: float = 0.8
    intra_host_prob: float = 0.8
    copy_prob: float = 0.5
    host_skew: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_vertices < self.num_hosts:
            raise ValueError("need at least one vertex per host")
        if self.num_hosts <= 0:
            raise ValueError("num_hosts must be positive")
        if not 0.0 <= self.intra_host_prob <= 1.0:
            raise ValueError("intra_host_prob must be in [0, 1]")
        if not 0.0 <= self.copy_prob <= 1.0:
            raise ValueError("copy_prob must be in [0, 1]")
        if self.mean_degree <= 0:
            raise ValueError("mean_degree must be positive")


@dataclass
class WebGraph:
    """Adjacency-list view of a generated webgraph."""

    adjacency: list[list[int]]
    host_of: np.ndarray
    host_ranges: list[tuple[int, int]]

    @property
    def num_vertices(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency)

    def records(self) -> list[list[int]]:
        """Per-vertex sorted out-neighbour lists (the partitioned items)."""
        return self.adjacency


def _host_sizes(config: WebGraphConfig, rng: np.random.Generator) -> np.ndarray:
    weights = 1.0 / np.power(
        np.arange(1, config.num_hosts + 1, dtype=np.float64), config.host_skew
    )
    weights /= weights.sum()
    sizes = np.maximum(1, np.round(weights * config.num_vertices).astype(np.int64))
    # Fix rounding so sizes sum exactly to num_vertices.
    diff = config.num_vertices - int(sizes.sum())
    sizes[0] += diff
    if sizes[0] < 1:
        raise ValueError("host size rounding failed; reduce num_hosts")
    return sizes


def generate_webgraph(config: WebGraphConfig) -> WebGraph:
    """Generate a webgraph per ``config`` (deterministic in seed)."""
    rng = np.random.default_rng(config.seed)
    sizes = _host_sizes(config, rng)
    host_ranges: list[tuple[int, int]] = []
    start = 0
    for s in sizes:
        host_ranges.append((start, start + int(s)))
        start += int(s)
    host_of = np.empty(config.num_vertices, dtype=np.int64)
    for h, (lo, hi) in enumerate(host_ranges):
        host_of[lo:hi] = h

    # Heavy-tailed degrees, clipped to the vertex count.
    mu = np.log(config.mean_degree) - config.degree_sigma**2 / 2.0
    degrees = np.minimum(
        np.maximum(1, rng.lognormal(mu, config.degree_sigma, config.num_vertices).astype(np.int64)),
        config.num_vertices - 1,
    )

    # One int object per vertex id, shared by every list that links to
    # it: a fresh int per link would cost 28 bytes per edge.
    vertex = list(range(config.num_vertices))
    # The loop's scalar draws come from a replay of the rest of rng's
    # stream (rng is not drawn from again).
    draws = PCG64Draws(rng)
    random, integers, choice = draws.random, draws.integers, draws.choice
    adjacency: list[list[int]] = []
    for v, h, target_deg in zip(vertex, host_of.tolist(), degrees.tolist()):
        lo, hi = host_ranges[h]
        links: set[int] = set()
        # Copy links from a *recent* same-host page: URL-ordered crawls
        # put template-sharing pages at adjacent ids, which is exactly
        # the structure WebGraph's bounded reference window exploits.
        local_prev = v - lo
        if local_prev > 0 and random() < config.copy_prob:
            template = integers(max(lo, v - 6), v)
            t_links = [u for u in adjacency[template] if u != v]
            if t_links:
                keep = max(1, int(round(0.9 * min(len(t_links), target_deg))))
                links.update(choice(t_links, keep, replace=False))
        # Fresh links: mostly intra-host, occasionally global.
        attempts = 0
        while len(links) < target_deg and attempts < 8 * target_deg:
            attempts += 1
            if random() < config.intra_host_prob and hi - lo > 1:
                u = integers(lo, hi)
            else:
                u = integers(0, config.num_vertices)
            if u != v:
                links.add(u)
        adjacency.append([vertex[u] for u in sorted(links)])

    return WebGraph(adjacency=adjacency, host_of=host_of, host_ranges=host_ranges)
