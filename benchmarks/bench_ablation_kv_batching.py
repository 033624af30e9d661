"""Ablation: the middleware batching claims (paper Section IV).

The paper's implementation section makes two performance claims about
the Redis path: (1) storing a partition as a list of length-prefixed
byte records lets the whole partition move in a single get/put instead
of "millions of get/put requests"; (2) pipelining batches commands up
to a preset width and "is known to substantially improve the response
times". This bench stages a real dataset partition through the KV
middleware under four access disciplines and prices the traffic with a
datacenter network model (0.5 ms RTT, 1 Gb/s).
"""

from conftest import run_once, save_result

from repro.data.datasets import load_dataset
from repro.kvstore.client import ClusterClient
from repro.kvstore.codec import encode_records
from repro.kvstore.network import NetworkModel, snapshot
from repro.kvstore.pipeline import Pipeline


def _run():
    dataset = load_dataset("uk")
    records = [[int(v) for v in item] for item in dataset.items]
    blobs = encode_records(records)
    net = NetworkModel()
    rows = []

    # (a) one SET per record, no pipelining (the naive strawman).
    client = ClusterClient(num_nodes=1)
    store = client.store_for(0)
    before = snapshot(store)
    for i, blob in enumerate(blobs):
        store.set(f"item:{i}", blob)
    for i in range(len(blobs)):
        store.get(f"item:{i}")
    rows.append(("per-item set/get", store.stats.round_trips, net.delta_time_s(before, store.stats)))

    # (b) per-item commands, pipelined at width 128.
    client = ClusterClient(num_nodes=1, pipeline_width=128)
    store = client.store_for(0)
    before = snapshot(store)
    with Pipeline(store, width=128) as pipe:
        for i, blob in enumerate(blobs):
            pipe.set(f"item:{i}", blob)
    with Pipeline(store, width=128) as pipe:
        for i in range(len(blobs)):
            pipe.get(f"item:{i}")
    rows.append(("pipelined width 128", store.stats.round_trips, net.delta_time_s(before, store.stats)))

    # (c) the paper's layout: list of length-prefixed records, one
    #     pipelined write batch (variadic RPUSH), single-LRANGE read.
    client = ClusterClient(num_nodes=1, pipeline_width=128)
    store = client.store_for(0)
    before = snapshot(store)
    client.put_partition(0, 0, records)
    client.get_partition(0, 0)
    rows.append(("record-list + LRANGE", store.stats.round_trips, net.delta_time_s(before, store.stats)))

    return rows


def test_ablation_kv_batching(benchmark):
    rows = run_once(benchmark, _run)
    lines = ["ABLATION — middleware batching (simulated 0.5 ms RTT, 1 Gb/s)"]
    for name, trips, seconds in rows:
        lines.append(f"  {name:<22} round_trips={trips:>6}  transfer={seconds:8.3f}s")
    save_result("ablation_kv_batching", "\n".join(lines))

    times = {name: seconds for name, _t, seconds in rows}
    trips = {name: t for name, t, _s in rows}
    # Pipelining buys an order of magnitude on this latency-bound link;
    # the record-list layout shaves the remaining read round trips too.
    assert times["pipelined width 128"] < 0.05 * times["per-item set/get"]
    assert times["record-list + LRANGE"] < times["pipelined width 128"]
    assert trips["record-list + LRANGE"] < trips["pipelined width 128"]
