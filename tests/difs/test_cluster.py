"""Unit tests for the cluster namespace and client paths."""

import hashlib
import json

import pytest

from repro.errors import ChunkLostError, ConfigError
from repro.difs.cluster import Cluster, ClusterConfig
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig

#: SHA-256 of :func:`_run_cluster`'s JSON. Recorded when the cluster
#: also had direct and batched IO paths; every path produced it.
GOLDEN_RUN_SHA256 = (
    "55381810554a3c900a913f8ca2b9c97946a17ef99e6f6103a3b2b9eee4e57489")


@pytest.fixture
def cluster(make_salamander):
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=11)
    for n in range(3):
        cluster.add_node(f"n{n}")
        cluster.add_device(f"n{n}", make_salamander(seed=n + 1))
    return cluster


class TestTopology:
    def test_volumes_registered_per_minidisk(self, cluster, make_salamander):
        device = make_salamander()
        count_before = len(cluster.volumes)
        cluster.add_node("n9")
        volumes = cluster.add_device("n9", device)
        assert len(volumes) == len(device.active_minidisks())
        assert len(cluster.volumes) == count_before + len(volumes)

    def test_monolithic_device_is_one_volume(self, cluster, make_baseline):
        cluster.add_node("n8")
        volumes = cluster.add_device("n8", make_baseline())
        assert len(volumes) == 1

    def test_duplicate_node_rejected(self, cluster):
        with pytest.raises(ConfigError):
            cluster.add_node("n0")

    def test_unknown_node_rejected(self, cluster, make_baseline):
        with pytest.raises(ConfigError):
            cluster.add_device("n42", make_baseline())


class TestChunkLifecycle:
    def test_create_and_read(self, cluster):
        cluster.create_chunk("alpha", b"some-bytes")
        data = cluster.read_chunk("alpha")
        assert data.rstrip(b"\0") == b"some-bytes"
        assert len(data) == cluster.config.chunk_bytes

    def test_replication_factor_respected(self, cluster):
        chunk = cluster.create_chunk("alpha", b"x")
        assert chunk.replica_count == 2
        nodes = {cluster.volumes[r.volume_id].node_id
                 for r in chunk.replicas}
        assert len(nodes) == 2

    def test_duplicate_chunk_rejected(self, cluster):
        cluster.create_chunk("alpha", b"x")
        with pytest.raises(ConfigError):
            cluster.create_chunk("alpha", b"y")

    def test_oversized_chunk_rejected(self, cluster):
        with pytest.raises(ConfigError):
            cluster.create_chunk("big", b"x" * (cluster.config.chunk_bytes + 1))

    def test_delete_releases_slots(self, cluster):
        chunk = cluster.create_chunk("alpha", b"x")
        used = [cluster.volumes[r.volume_id].used_slots
                for r in chunk.replicas]
        assert all(u > 0 for u in used)
        cluster.delete_chunk("alpha")
        assert "alpha" not in cluster.namespace
        assert all(v.used_slots == 0 for v in cluster.volumes.values())

    def test_read_unknown_chunk_rejected(self, cluster):
        with pytest.raises(ConfigError):
            cluster.read_chunk("ghost")

    def test_all_replicas_lost_raises_chunk_lost(self, cluster):
        chunk = cluster.create_chunk("alpha", b"x")
        for replica in list(chunk.replicas):
            cluster.volumes[replica.volume_id].mark_failed()
        with pytest.raises(ChunkLostError):
            cluster.read_chunk("alpha")


class TestFailureDetection:
    def test_read_falls_back_to_surviving_replica(self, cluster):
        chunk = cluster.create_chunk("alpha", b"precious")
        first = chunk.replicas[0]
        cluster.volumes[first.volume_id].mark_failed()
        assert cluster.read_chunk("alpha").rstrip(b"\0") == b"precious"
        # The dead replica was forgotten and a repair enqueued.
        assert chunk.replica_on(first.volume_id) is None
        assert cluster.recovery.has_pending

    def test_poll_failures_detects_dead_volumes(self, cluster):
        volume_id = next(iter(cluster.volumes))
        cluster.volumes[volume_id].mark_failed()
        assert cluster.poll_failures() == 1
        assert cluster.poll_failures() == 0  # idempotent

    def test_report_shape(self, cluster):
        cluster.create_chunk("alpha", b"x")
        report = cluster.report()
        assert report["nodes"] == 3
        assert report["chunks"] == 1
        assert report["live_volumes"] == report["volumes"]


def _run_cluster() -> str:
    """Build, write, update, delete, audit; dump everything observable.

    The same fixture as the CI ``io_batch_direct.json`` check.
    """
    geometry = FlashGeometry(blocks=16, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=60)
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=29)
    for index in range(3):
        cluster.add_node(f"n{index}")
        cluster.add_device(f"n{index}", BaselineSSD(
            FlashChip(geometry, rber_model=model, policy=policy,
                      seed=index + 1, variation_sigma=0.3),
            SSDConfig(ftl=FTLConfig(overprovision=0.25, buffer_opages=8,
                                    gc_reserve_blocks=2))))
    for index in range(12):
        cluster.create_chunk(f"c{index}", f"chunk-{index}".encode() * 3)
    for index in range(0, 12, 2):
        cluster.update_chunk(f"c{index}", f"update-{index}".encode() * 2)
    cluster.delete_chunk("c11")
    cluster.audit()
    return json.dumps({
        "chunks": {cid: hashlib.sha256(
                       cluster.read_chunk(cid)).hexdigest()
                   for cid in sorted(cluster.namespace)},
        "namespace": cluster.namespace_snapshot(),
        "wear": cluster.wear_stats(),
        "cluster_rng": str(cluster.rng.bit_generator.state),
    }, indent=1, sort_keys=True, default=str)


class TestDeterminism:
    def test_run_matches_golden_digest(self):
        digest = hashlib.sha256(_run_cluster().encode()).hexdigest()
        assert digest == GOLDEN_RUN_SHA256
