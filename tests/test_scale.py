"""Tests for repro.scale: hash ring, batcher, sharded SDL.

Covers the invariants the scaling substrate is built on: consistent-hash
relocation bounds, bounded-queue accounting (``offered == ingested +
dropped + pending``) and acknowledged-write durability across shard kills.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.oran.sdl import SdlError, SharedDataLayer
from repro.scale import (
    BoundedBatcher,
    ConsistentHashRing,
    DROP_NEWEST,
    DROP_OLDEST,
    HashRingError,
    ShardedSdl,
    ShardUnavailableError,
    stable_hash,
)
from repro.oran.ric import NearRtRic
from repro.ran.links import InterfaceLink
from repro.runtime.settings import RuntimeSettings
from repro.sim import Simulator


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("ue-42") == stable_hash("ue-42")

    def test_64_bit_range(self):
        value = stable_hash("rnti/17002")
        assert 0 <= value < 2**64

    def test_spreads_nearby_keys(self):
        points = {stable_hash(f"session-{i}") for i in range(100)}
        assert len(points) == 100


class TestHashRing:
    def test_lookup_deterministic_across_instances(self):
        keys = [f"ue-{i}" for i in range(200)]
        a = ConsistentHashRing(["s0", "s1", "s2"], vnodes=64)
        b = ConsistentHashRing(["s2", "s0", "s1"], vnodes=64)  # order-free
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_empty_ring_rejected(self):
        with pytest.raises(HashRingError):
            ConsistentHashRing().lookup("key")

    def test_duplicate_and_unknown_nodes_rejected(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(HashRingError):
            ring.add_node("a")
        with pytest.raises(HashRingError):
            ring.remove_node("zz")

    def test_lookup_n_distinct_primary_first(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(5)], vnodes=64)
        owners = ring.lookup_n("ue-7", 3)
        assert len(owners) == len(set(owners)) == 3
        assert owners[0] == ring.lookup("ue-7")

    def test_lookup_n_clamped_to_ring_size(self):
        ring = ConsistentHashRing(["a", "b"])
        assert sorted(ring.lookup_n("k", 10)) == ["a", "b"]

    def test_add_node_relocates_about_k_over_n(self):
        keys = [f"ue-{i}" for i in range(2000)]
        ring = ConsistentHashRing([f"s{i}" for i in range(4)], vnodes=128)
        before = {k: ring.lookup(k) for k in keys}
        ring.add_node("s4")
        moved = [k for k in keys if ring.lookup(k) != before[k]]
        # Ideal relocation is K/N = 400; allow generous variance, but far
        # below the ~K(N-1)/N a naive mod-N rehash would move.
        assert len(moved) < 2 * len(keys) / 5
        # Every relocated key moved *to* the new node, never between old ones.
        assert all(ring.lookup(k) == "s4" for k in moved)

    def test_remove_node_relocates_only_its_keys(self):
        keys = [f"sess-{i}" for i in range(2000)]
        ring = ConsistentHashRing([f"s{i}" for i in range(5)], vnodes=128)
        before = {k: ring.lookup(k) for k in keys}
        victims = [k for k in keys if before[k] == "s2"]
        ring.remove_node("s2")
        for k in keys:
            if k in victims:
                assert ring.lookup(k) != "s2"
            else:
                assert ring.lookup(k) == before[k]

    def test_distribution_roughly_balanced(self):
        keys = [f"ue-{i}" for i in range(4000)]
        ring = ConsistentHashRing([f"s{i}" for i in range(4)], vnodes=128)
        counts = ring.distribution(keys)
        assert sum(counts.values()) == len(keys)
        for count in counts.values():
            assert 0.5 * 1000 < count < 2.0 * 1000


class TestBatcher:
    def collector(self):
        batches = []
        return batches, batches.append

    def test_flushes_on_size(self):
        batches, sink = self.collector()
        batcher = BoundedBatcher(sink, flush_records=4)
        for i in range(10):
            batcher.offer(i)
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert batcher.pending == 2
        assert batcher.close() == 2
        assert batches[-1] == [8, 9]

    def test_queue_never_exceeds_capacity(self):
        batches, sink = self.collector()
        batcher = BoundedBatcher(sink, capacity=8, flush_records=100)
        peak = 0
        for i in range(50):
            batcher.offer(i)
            peak = max(peak, batcher.pending)
        assert peak <= 8
        assert batcher.dropped == 42

    def test_accounting_invariant_drop_oldest(self):
        batches, sink = self.collector()
        batcher = BoundedBatcher(
            sink, capacity=8, flush_records=100, drop_policy=DROP_OLDEST
        )
        for i in range(50):
            batcher.offer(i)
        assert batcher.offered == batcher.ingested + batcher.dropped + batcher.pending
        batcher.close()
        # Oldest were shed: the survivors are the newest 8 offers.
        assert batches == [[42, 43, 44, 45, 46, 47, 48, 49]]
        assert batcher.offered == batcher.ingested + batcher.dropped

    def test_accounting_invariant_drop_newest(self):
        batches, sink = self.collector()
        batcher = BoundedBatcher(
            sink, capacity=8, flush_records=100, drop_policy=DROP_NEWEST
        )
        accepted = [batcher.offer(i) for i in range(50)]
        assert accepted[:8] == [True] * 8 and not any(accepted[8:])
        assert batcher.offered == batcher.ingested + batcher.dropped + batcher.pending
        batcher.close()
        # Newest were shed: the survivors are the first 8 offers.
        assert batches == [[0, 1, 2, 3, 4, 5, 6, 7]]

    def test_drops_match_offered_minus_ingested(self):
        batches, sink = self.collector()
        batcher = BoundedBatcher(sink, capacity=16, flush_records=5)
        offered = 137
        for i in range(offered):
            batcher.offer(i)
        batcher.close()
        assert batcher.offered == offered
        assert batcher.dropped == offered - batcher.ingested
        assert sum(len(b) for b in batches) == batcher.ingested

    def test_interval_flush_via_simulator(self):
        sim = Simulator()
        batches, sink = self.collector()
        batcher = BoundedBatcher(
            sink,
            flush_records=100,
            flush_interval_s=0.05,
            scheduler=sim.schedule,
            clock=lambda: sim.now,
        )
        sim.schedule_at(0.0, lambda: [batcher.offer(i) for i in range(3)])
        sim.run()
        assert batches == [[0, 1, 2]]

    def test_closed_batcher_rejects_offers(self):
        batcher = BoundedBatcher(lambda batch: None)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.offer(1)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            BoundedBatcher(lambda b: None, capacity=0)
        with pytest.raises(ValueError):
            BoundedBatcher(lambda b: None, flush_records=0)
        with pytest.raises(ValueError):
            BoundedBatcher(lambda b: None, drop_policy="random")


class TestShardedSdl:
    def test_contract_parity_with_shared_data_layer(self):
        sdl = ShardedSdl(shards=4)
        sdl.set("ns", "key", {"a": 1, "b": [1, 2]})
        assert sdl.get("ns", "key") == {"a": 1, "b": [1, 2]}
        assert sdl.get("ns", "missing", default=42) == 42
        with pytest.raises(SdlError):
            sdl.require("ns", "missing")
        assert sdl.delete("ns", "key") is True
        assert sdl.delete("ns", "key") is False

    def test_values_stored_by_value(self):
        sdl = ShardedSdl(shards=3)
        value = {"list": [1]}
        sdl.set("ns", "k", value)
        value["list"].append(2)
        assert sdl.get("ns", "k") == {"list": [1]}

    def test_keys_union_across_shards(self):
        sdl = ShardedSdl(shards=4)
        for i in range(40):
            sdl.set("ns", f"k{i:02d}", i)
        assert sdl.keys("ns") == [f"k{i:02d}" for i in range(40)]
        assert sdl.namespaces() == ["ns"]

    def test_shard_key_pins_placement(self):
        sdl = ShardedSdl(shards=4, replication=2)
        replicas = sdl.replicas_for("ue-7")
        sdl.set("ns", "a", 1, shard_key="ue-7")
        sdl.set("ns", "b", 2, shard_key="ue-7")
        for name in replicas:
            shard = sdl._shards[name]
            assert set(shard.data["ns"]) == {"a", "b"}

    def test_kill_shard_loses_nothing_with_replication(self):
        sdl = ShardedSdl(shards=4, replication=2)
        keys = [f"k{i}" for i in range(200)]
        for key in keys:
            sdl.set("ns", key, {"v": key})
        sdl.kill_shard(0)
        for key in keys:
            assert sdl.get("ns", key) == {"v": key}
        assert sdl.shards_alive() == 3
        assert sdl.health()["failovers"] > 0

    def test_unreplicated_kill_is_visible_not_silent(self):
        sdl = ShardedSdl(shards=2, replication=1)
        for i in range(50):
            sdl.set("ns", f"k{i}", i)
        held = {name: dict(shard.data.get("ns", {})) for name, shard in sdl._shards.items()}
        sdl.kill_shard("shard-0")
        for i in range(50):
            expected = None if f"k{i}" in held["shard-0"] else i
            assert sdl.get("ns", f"k{i}") == expected

    def test_write_with_all_replicas_dead_not_acknowledged(self):
        sdl = ShardedSdl(shards=2, replication=1)
        # Find a key owned by shard-0, kill it, and try to write.
        key = next(
            f"k{i}" for i in range(100) if sdl.replicas_for(f"ns/k{i}")[0] == "shard-0"
        )
        sdl.kill_shard(0)
        with pytest.raises(ShardUnavailableError):
            sdl.set("ns", key, 1)
        sdl.revive_shard(0)
        assert sdl.get("ns", key) is None  # never stored anywhere

    def test_read_repair_after_revive(self):
        metrics = MetricsRegistry()
        sdl = ShardedSdl(shards=3, replication=2, metrics=metrics)
        key = next(
            f"k{i}" for i in range(200) if sdl.replicas_for(f"ns/k{i}")[0] == "shard-0"
        )
        sdl.kill_shard(0)
        sdl.set("ns", key, {"v": 1})  # acked by the surviving replica
        sdl.revive_shard(0)
        assert sdl.get("ns", key) == {"v": 1}
        assert sdl.health()["read_repairs"] >= 1
        # The healed replica now serves the key directly.
        assert sdl._shards["shard-0"].data["ns"][key]

    def test_watch_fires_once_per_write_and_isolates_errors(self):
        sdl = ShardedSdl(shards=4, replication=2)
        seen = []

        def bad(ns, key, value):
            raise RuntimeError("boom")

        sdl.watch("ns", bad)
        sdl.watch("ns", lambda ns, key, value: seen.append((key, value)))
        sdl.set("ns", "k", 7)
        assert seen == [("k", 7)]  # once, despite two replicas
        assert sdl.get("ns", "k") == 7
        assert int(sdl._watch_errors.value) == 1

    def test_invalid_topologies_rejected(self):
        with pytest.raises(ValueError):
            ShardedSdl(shards=0)
        with pytest.raises(ValueError):
            ShardedSdl(shards=2, replication=3)
        with pytest.raises(KeyError):
            ShardedSdl(shards=2).kill_shard("shard-9")


class TestSdlWatchIsolation:
    """Satellite fix: a raising watcher must not abort the write loop."""

    def test_later_watchers_still_notified(self):
        metrics = MetricsRegistry()
        sdl = SharedDataLayer(metrics=metrics)
        seen = []

        def bad(ns, key, value):
            raise RuntimeError("watcher bug")

        sdl.watch("ns", bad)
        sdl.watch("ns", lambda ns, key, value: seen.append(key))
        before = metrics.histogram("sdl.write_wall_s").count
        sdl.set("ns", "k", 1)  # must not raise
        assert seen == ["k"]
        assert sdl.get("ns", "k") == 1
        assert int(metrics.counter("sdl.watch_errors_total").value) == 1
        # The wall-clock observation still lands even when a watcher raises.
        assert metrics.histogram("sdl.write_wall_s").count == before + 1


def _ric(runtime=None):
    sim = Simulator(seed=0)
    e2 = InterfaceLink(sim, "E2")
    e2.connect(a_handler=lambda m: None, b_handler=lambda m: None)
    return NearRtRic(sim, e2, runtime=runtime)


class TestTopologySettings:
    def test_defaults_keep_seed_paths_off(self):
        ric = _ric(RuntimeSettings())
        assert type(ric.sdl) is SharedDataLayer
        assert ric.e2term.ingest_batcher is None

    def test_flags_flip_with_knobs(self):
        ric = _ric(RuntimeSettings(sdl_shards=4, sdl_replication=2, ingest_flush_records=64))
        assert isinstance(ric.sdl, ShardedSdl)
        assert ric.sdl.num_shards == 4 and ric.sdl.replication == 2
        batcher = ric.e2term.ingest_batcher
        assert batcher is not None and batcher.flush_records == 64


class TestSdlSetMany:
    def test_matches_sequential_sets(self):
        a, b = SharedDataLayer(), SharedDataLayer()
        pairs = [(f"k{i}", {"v": i}) for i in range(5)]
        for key, value in pairs:
            a.set("ns", key, value)
        b.set_many("ns", pairs)
        assert a._data == b._data
        assert b.get("ns", "k3") == {"v": 3}

    def test_one_acked_write_per_batch(self):
        sdl = SharedDataLayer()
        sdl.set_many("ns", [(f"k{i}", i) for i in range(10)])
        assert sdl.writes == 1

    def test_watchers_notified_per_pair(self):
        sdl = SharedDataLayer()
        seen = []
        sdl.watch("ns", lambda ns, key, value: seen.append((key, value)))
        sdl.set_many("ns", [("a", 1), ("b", 2)])
        assert seen == [("a", 1), ("b", 2)]

    def test_empty_batch_noop(self):
        sdl = SharedDataLayer()
        sdl.set_many("ns", [])
        assert sdl.writes == 0

    def test_sharded_set_many_matches_sets(self):
        a = ShardedSdl(shards=3, replication=2)
        b = ShardedSdl(shards=3, replication=2)
        pairs = [(f"k{i}", i) for i in range(8)]
        for key, value in pairs:
            a.set("ns", key, value, shard_key="session-7")
        b.set_many("ns", pairs, shard_key="session-7")
        for key, value in pairs:
            assert b.get("ns", key, shard_key="session-7") == value
        assert b.writes == 1
        assert a.keys("ns") == b.keys("ns")


class TestBatcherOfferMany:
    def test_matches_repeated_offer(self):
        flushed_a, flushed_b = [], []
        a = BoundedBatcher(flushed_a.append, flush_records=16)
        b = BoundedBatcher(flushed_b.append, flush_records=16)
        items = list(range(40))
        for item in items:
            a.offer(item)
        assert b.offer_many(items) == 40
        assert flushed_a == flushed_b
        assert a.pending == b.pending

    def test_drop_policy_applied_per_item(self):
        flushed = []
        batcher = BoundedBatcher(
            flushed.append, capacity=4, flush_records=100, drop_policy="newest"
        )
        assert batcher.offer_many(list(range(10))) == 4
        assert batcher.dropped == 6
        assert batcher.pending == 4
