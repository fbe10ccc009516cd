"""Cluster data-path spec: every chunk IO goes through the device queues.

A fixed workload over a mixed cluster (baseline, CVSS and two
Salamander devices) must leave exactly the recorded state: chunk bytes,
placement, the cluster's RNG state, and every chip's RNG state and
wear, all folded into one SHA-256. The golden digest was recorded when
the cluster still had a direct device-call path and a batched staging
path next to the queued one; all three produced it, so it pins that the
queue changes nothing but adding measured latencies.
"""

import hashlib
import json

import pytest

from repro.difs.cluster import Cluster, ClusterConfig

GOLDEN_STATE_SHA256 = (
    "dc97c57eeeac71046df37f152183f534b579ed68c2721fa93543b3e8d2d59cd6")


def build_cluster(make_baseline, make_cvss, make_salamander) -> Cluster:
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=29)
    cluster.add_node("n0")
    cluster.add_device("n0", make_baseline(seed=1))
    cluster.add_node("n1")
    cluster.add_device("n1", make_cvss(seed=2))
    cluster.add_node("n2")
    cluster.add_device("n2", make_salamander(seed=3))
    cluster.add_node("n3")
    cluster.add_device("n3", make_salamander(seed=4))
    return cluster


def run_workload(cluster: Cluster) -> dict[str, bytes]:
    for i in range(12):
        cluster.create_chunk(f"c{i}", f"chunk-{i}".encode() * 3)
    for i in range(0, 12, 2):
        cluster.update_chunk(f"c{i}", f"update-{i}".encode() * 2)
    cluster.delete_chunk("c11")
    # Fail one volume and let recovery re-replicate off it.
    victim = sorted(cluster.volumes)[0]
    cluster.volumes[victim].mark_failed()
    cluster.poll_failures()
    cluster.run_recovery()
    cluster.audit()
    return {cid: cluster.read_chunk(cid)
            for cid in sorted(cluster.namespace)}


def devices_of(cluster: Cluster):
    seen, out = set(), []
    for node in cluster.nodes.values():
        for device in node.devices:
            if id(device) not in seen:
                seen.add(id(device))
                out.append(device)
    return out


def state_digest(cluster: Cluster, data: dict[str, bytes]) -> str:
    """SHA-256 over chunk bytes, placement, and cluster/chip RNG + wear."""
    state = {
        "chunks": {cid: hashlib.sha256(blob).hexdigest()
                   for cid, blob in data.items()},
        "placement": {cid: [(r.volume_id, r.slot, r.index)
                            for r in chunk.replicas]
                      for cid, chunk in sorted(cluster.namespace.items())},
        "cluster_rng": cluster.rng.bit_generator.state,
        "devices": [{"chip_rng": device.chip.rng.bit_generator.state,
                     "wear": device.chip.wear_summary()}
                    for device in devices_of(cluster)],
    }
    return hashlib.sha256(json.dumps(
        state, sort_keys=True, default=str).encode()).hexdigest()


@pytest.fixture
def cluster(make_baseline, make_cvss, make_salamander):
    return build_cluster(make_baseline, make_cvss, make_salamander)


class TestDifferential:
    def test_zero_data_path_divergence(self, cluster):
        data = run_workload(cluster)
        assert state_digest(cluster, data) == GOLDEN_STATE_SHA256
        for device in devices_of(cluster):
            device._audit_fastpath()
        assert cluster.io_stats()["errors"] == 0

    def test_queued_path_is_default_and_measures(self, cluster):
        run_workload(cluster)
        stats = cluster.io_stats()
        assert stats["queues"] == 4
        assert stats["dispatched"] > 0
        assert stats["errors"] == 0
        # Flash reads took simulated time, so the means are real numbers.
        assert stats["mean_latency_us"] > 0.0
        assert stats["mean_service_us"] > 0.0
        # Closed-loop cluster IO never waits (no open-loop arrivals).
        assert stats["mean_wait_us"] == 0.0
        # Deadline accounting aggregates (none set here: zero misses).
        assert stats["deadline_misses"] == 0
        assert stats["deadline_miss_ratio"] == 0.0
        assert cluster.report()["io_mean_latency_us"] == pytest.approx(
            stats["mean_latency_us"])

    def test_minidisk_volumes_share_their_device_queue(self, cluster):
        by_device = {}
        for volume in cluster.volumes.values():
            assert volume.queue is volume.device.io_queue
            by_device.setdefault(id(volume.device), set()).add(
                id(volume.queue))
        for queue_ids in by_device.values():
            assert len(queue_ids) == 1

    def test_regenerated_minidisk_joins_device_queue(
            self, make_salamander):
        cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4),
                          seed=5)
        cluster.add_node("n0")
        device = make_salamander(mode="regen", seed=6)
        cluster.add_device("n0", device)
        queue_before = device.io_queue
        ids_before = set(cluster.volumes)
        # Wear the device until a regeneration happens: the new
        # minidisk's volume must share the existing device queue (the
        # NCQ is a device resource that outlives any one minidisk).
        import numpy as np
        rng = np.random.default_rng(0)
        while device.stats.regenerated_minidisks == 0:
            active = device.active_minidisks()
            mdisk = active[int(rng.integers(0, len(active)))]
            device.write(mdisk.mdisk_id,
                         int(rng.integers(0, mdisk.size_lbas)), b"x")
        new_ids = set(cluster.volumes) - ids_before
        assert new_ids, "regen mode should have registered new volumes"
        for volume_id in new_ids:
            assert cluster.volumes[volume_id].queue is queue_before
