"""Unit tests for cluster assembly and presets."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, homogeneous_cluster, paper_cluster
from repro.cluster.node import PAPER_NODE_TYPES, Node
from repro.energy.traces import EnergyTrace


class TestPaperCluster:
    def test_cycles_through_four_types(self):
        cluster = paper_cluster(8)
        speeds = [n.speed_factor for n in cluster]
        assert speeds == [4.0, 3.0, 2.0, 1.0, 4.0, 3.0, 2.0, 1.0]

    def test_four_node_cluster_one_of_each(self):
        cluster = paper_cluster(4)
        assert sorted(n.node_type.type_id for n in cluster) == [1, 2, 3, 4]

    def test_locations_cycle(self):
        cluster = paper_cluster(8)
        names = [n.trace.location.name for n in cluster]
        assert names[:4] == names[4:]
        assert len(set(names[:4])) == 4

    def test_traces_seeded_independently(self):
        cluster = paper_cluster(8, seed=3)
        # Same location, different node => different weather realisation.
        assert not np.array_equal(cluster[0].trace.watts, cluster[4].trace.watts)

    def test_deterministic_in_seed(self):
        c1, c2 = paper_cluster(4, seed=9), paper_cluster(4, seed=9)
        for n1, n2 in zip(c1, c2):
            assert np.array_equal(n1.trace.watts, n2.trace.watts)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            paper_cluster(0)

    def test_dirty_coefficients_vector(self):
        cluster = paper_cluster(8)
        k = cluster.dirty_power_coefficients()
        assert k.shape == (8,)
        assert (k >= 0).all()


class TestHomogeneousCluster:
    def test_uniform_speeds(self):
        cluster = homogeneous_cluster(6, speed_factor=2.0)
        assert all(n.speed_factor == 2.0 for n in cluster)

    def test_uniform_power(self):
        cluster = homogeneous_cluster(3, cores=2)
        assert len({n.watts for n in cluster}) == 1


class TestClusterStructure:
    def test_dense_ids_required(self):
        nodes = [
            Node(
                node_id=i,
                node_type=PAPER_NODE_TYPES[0],
                trace=EnergyTrace(watts=np.zeros(1)),
            )
            for i in (0, 2)
        ]
        with pytest.raises(ValueError):
            Cluster(nodes=nodes)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster(nodes=[])

    def test_iteration_and_indexing(self):
        cluster = paper_cluster(4)
        assert len(cluster) == 4
        assert cluster[2].node_id == 2
        assert [n.node_id for n in cluster] == [0, 1, 2, 3]

    def test_kv_client_matches_size(self):
        cluster = paper_cluster(4)
        assert cluster.kv.num_nodes == 4
