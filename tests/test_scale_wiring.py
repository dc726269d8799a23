"""repro.scale wired through the full stack (RIC, E2 term, MobiWatch).

Checks both directions of the config flag:

- defaults keep the seed's single-node components (no sharded SDL, no
  ingest batcher) so behaviour is bit-identical;
- a scaled-up config routes live traffic through both and still produces
  the same telemetry and detections;
- a shard killed (and later revived) in the middle of a live run loses no
  acked telemetry and does not move a single detection;
- release eviction, the verdict cache with coalescing, a sharded SDL and
  the ingest batcher run together with every ledger balanced;
- an alarm is stamped with the sim clock at emission and scoring wall
  time is observed once per provider call.
"""

import copy

import numpy as np
import pytest

from repro.attacks import BtsDosAttack
from repro.core import SixGXSec, XsecConfig
from repro.core.framework import build_detector
from repro.core.mobiwatch import SDL_TELEMETRY_NS
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.llm.cache import LlmfastSettings
from repro.oran.sdl import SharedDataLayer
from repro.ran.network import NetworkConfig
from repro.runtime.settings import RuntimeSettings
from repro.scale import ShardedSdl

from tests.test_megabatch import ATTACK_SCENARIOS


def scaled_settings():
    return RuntimeSettings(sdl_shards=4, sdl_replication=2, ingest_flush_records=8)


@pytest.fixture(scope="module")
def benign_windows():
    config = XsecConfig()
    capture = generate_benign_dataset(
        BenignDatasetConfig(duration_s=90.0, ue_mix=(("pixel5", 1), ("oai_ue", 1)))
    )
    return capture.labeled(config.spec, config.window, "benign").windowed.windows


def run_live(config, benign_windows, seed=77, prepare=None):
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=seed))
    xsec.train_from_benign(benign_windows)
    for profile in ("pixel5", "oai_ue"):
        ue = xsec.net.add_ue(profile)
        xsec.net.sim.schedule(0.5, ue.start_session)
    if prepare is not None:
        prepare(xsec)
    xsec.run(until=25.0)
    return xsec


class TestDefaultsAreSeedComponents:
    def test_default_config_uses_single_node_path(self):
        xsec = SixGXSec(XsecConfig())
        assert type(xsec.ric.sdl) is SharedDataLayer
        assert xsec.ric.e2term.ingest_batcher is None
        assert xsec.pipeline.scale_report() == {}

    @pytest.mark.parametrize(
        "topology",
        [
            {"sdl_shards": 0},
            {"sdl_shards": -2},
            {"sdl_shards": 1, "sdl_replication": 3},
            {"sdl_replication": 0},
            {"sdl_shards": 2, "sdl_replication": 3},
            {"ingest_flush_records": -4},
        ],
        ids=[
            "no-shards",
            "negative-shards",
            "replicas-without-shards",
            "no-replicas",
            "more-replicas-than-shards",
            "negative-flush",
        ],
    )
    def test_out_of_range_topology_is_refused(self, topology):
        """Each of these once built a plain-SDL deployment with no batcher
        and said nothing: the only reads were ``> 1`` / ``> 0``."""
        with pytest.raises(ValueError):
            XsecConfig(runtime=RuntimeSettings(**topology))


class TestScaledLivePipeline:
    @pytest.fixture(scope="class")
    def pair(self, benign_windows):
        seed_cfg = XsecConfig(train_epochs=6)
        scaled_cfg = XsecConfig(train_epochs=6, runtime=scaled_settings())
        return (
            run_live(seed_cfg, benign_windows),
            run_live(scaled_cfg, benign_windows),
        )

    def test_scaled_components_instantiated(self, pair):
        _, scaled = pair
        assert isinstance(scaled.ric.sdl, ShardedSdl)
        assert scaled.ric.sdl.num_shards == 4
        assert scaled.ric.e2term.ingest_batcher is not None

    def test_same_telemetry_reaches_mobiwatch(self, pair):
        baseline, scaled = pair
        assert baseline.mobiwatch.records_seen > 20
        # Batching delays delivery (bounded by the flush interval) but must
        # not lose or duplicate records on an uncongested run.
        stats = scaled.ric.e2term.ingest_batcher.stats()
        assert stats["dropped"] == 0
        assert scaled.mobiwatch.records_seen == baseline.mobiwatch.records_seen

    def test_batcher_accounting_closed(self, pair):
        _, scaled = pair
        stats = scaled.ric.e2term.ingest_batcher.stats()
        assert stats["offered"] == stats["ingested"] + stats["dropped"] + stats["pending"]

    def test_telemetry_lands_in_sharded_sdl(self, pair):
        _, scaled = pair
        keys = scaled.ric.sdl.keys("xsec.mobiflow")
        assert len(keys) == scaled.mobiwatch.records_seen
        per_shard = scaled.ric.sdl.health()["per_shard_writes"]
        assert sum(1 for writes in per_shard.values() if writes) >= 2

    def test_scale_report_sections(self, pair):
        _, scaled = pair
        report = scaled.pipeline.scale_report()
        assert set(report) == {"sdl", "ingest"}
        assert report["sdl"]["alive"] == 4

    def test_scored_window_counts_match_baseline(self, pair):
        baseline, scaled = pair
        # Identical traffic (same network seed): the scaled path must see
        # the same records and score the same number of windows.
        assert scaled.mobiwatch.records_seen == baseline.mobiwatch.records_seen
        assert scaled.mobiwatch.windows_scored == baseline.mobiwatch.windows_scored


def telemetry_reads(xsec):
    """Every telemetry record MobiWatch has acked, read back from the SDL
    by the placement key it was written under (the UE session)."""
    watch, sdl = xsec.mobiwatch, xsec.ric.sdl
    return [
        sdl.get(
            SDL_TELEMETRY_NS,
            f"{index:09d}",
            shard_key=str(watch.series[index].session_id or index),
        )
        for index in range(watch.records_seen)
    ]


def event_tuples(xsec):
    return [
        (e.detected_at, e.session_id, e.score, e.threshold, e.record_indices)
        for e in xsec.mobiwatch.anomalies
    ]


class TestShardKillInTheLiveLoop:
    """One of four shards (replication 2) dies at 6 s of a live run and
    comes back at 15 s; a BTS-DoS flood lands before the kill, one during
    the outage and one after the revival."""

    FLOODS_AT_S = (3.0, 11.0, 17.0)
    KILL_AT_S, PROBE_AT_S, REVIVE_AT_S = 6.0, 14.0, 15.0

    @pytest.fixture(scope="class")
    def runs(self, benign_windows):
        probes = {}

        def floods(xsec):
            # Lower the operating threshold so the run provably alarms:
            # empty-vs-empty would not prove the streams equal.
            xsec.mobiwatch.on_policy(1, {"threshold_percentile": 80.0})
            for start in self.FLOODS_AT_S:
                BtsDosAttack(xsec.net, start_time=start, connections=8, interval_s=0.08).arm()

        def floods_and_faults(xsec):
            floods(xsec)
            sim, sdl = xsec.net.sim, xsec.ric.sdl

            def kill():
                probes["acked_before_kill"] = xsec.mobiwatch.records_seen
                sdl.kill_shard(0)

            def probe():
                probes["alive_during"] = sdl.shards_alive()
                probes["reads_during"] = telemetry_reads(xsec)

            sim.schedule_at(self.KILL_AT_S, kill)
            sim.schedule_at(self.PROBE_AT_S, probe)
            sim.schedule_at(self.REVIVE_AT_S, lambda: sdl.revive_shard(0))

        unsharded = run_live(XsecConfig(train_epochs=6), benign_windows, prepare=floods)
        sharded = run_live(
            XsecConfig(train_epochs=6, runtime=RuntimeSettings(sdl_shards=4, sdl_replication=2)),
            benign_windows,
            prepare=floods_and_faults,
        )
        return unsharded, sharded, probes

    def test_acked_telemetry_readable_through_the_outage(self, runs):
        _, sharded, probes = runs
        assert probes["alive_during"] == 3
        during = probes["reads_during"]
        # Records acked before the kill and records acked while the shard
        # was down: all served by a surviving replica.
        assert 0 < probes["acked_before_kill"] < len(during)
        assert None not in during
        assert sharded.ric.sdl.health()["failovers"] > 0

    def test_every_acked_record_readable_after_revival(self, runs):
        _, sharded, probes = runs
        reads = telemetry_reads(sharded)
        assert len(reads) == sharded.mobiwatch.records_seen > len(probes["reads_during"])
        assert reads == [record.to_wire_dict() for record in sharded.mobiwatch.series]
        assert len(sharded.ric.sdl.keys(SDL_TELEMETRY_NS)) == len(reads)

    def test_read_repair_heals_the_revived_shard(self, runs):
        _, sharded, _ = runs
        sdl, watch = sharded.ric.sdl, sharded.mobiwatch
        telemetry_reads(sharded)
        assert sdl.shards_alive() == 4
        assert sdl.health()["read_repairs"] > 0
        # A read walks the replicas primary first, so what it heals is the
        # revived shard's own primaries: every one of them is back.
        revived = sdl._shards["shard-0"].data[SDL_TELEMETRY_NS]
        primaries = [
            f"{index:09d}"
            for index, record in enumerate(watch.series)
            if sdl.replicas_for(str(record.session_id or index))[0] == "shard-0"
        ]
        assert primaries and all(key in revived for key in primaries)

    def test_detections_equal_the_unsharded_run(self, runs):
        unsharded, sharded, _ = runs
        assert sharded.mobiwatch.records_seen == unsharded.mobiwatch.records_seen
        assert sharded.mobiwatch.windows_scored == unsharded.mobiwatch.windows_scored
        assert len(unsharded.mobiwatch.anomalies) > 0
        assert event_tuples(sharded) == event_tuples(unsharded)


# ---------------------------------------------------------------------------
# a pre-trained LSTM deployed into live attack scenarios


@pytest.fixture(scope="module")
def trained_lstm(benign_windows):
    config = XsecConfig(detector="lstm", train_epochs=6)
    detector = build_detector(config)
    detector.fit(np.asarray(benign_windows), epochs=6, lr=config.train_lr)
    return detector


def run_deployed(
    detector,
    runtime=None,
    attack=None,
    seed=77,
    until=20.0,
    net_kwargs=None,
    percentile=None,
    observe=None,
    **settings,
):
    """One live pipeline run with a pre-trained detector copy deployed.

    ``settings`` are further ``XsecConfig`` fields (``evict_on_release=``,
    ``llmfast=``); ``observe(xsec)`` runs after the deploy and before the
    first event.
    """
    config = XsecConfig(
        detector=detector.name,
        train_epochs=6,
        runtime=runtime or RuntimeSettings(),
        **settings,
    )
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=seed, **(net_kwargs or {})))
    xsec.deploy_detector(copy.deepcopy(detector))
    if percentile is not None:
        # Lower the operating threshold so the scenario provably emits
        # events: empty-vs-empty would not prove anything.
        xsec.mobiwatch.on_policy(1, {"threshold_percentile": percentile})
    if observe is not None:
        observe(xsec)
    for profile in ("pixel5", "oai_ue"):
        ue = xsec.net.add_ue(profile)
        xsec.net.sim.schedule(0.5, ue.start_session)
    if attack is not None:
        attack(xsec.net).arm()
    xsec.run(until=until)
    return xsec


class TestFlagCombination:
    """Release eviction x verdict cache + coalescing x a sharded SDL behind
    the ingest batcher: each has its own suite, here they run together."""

    SETTINGS = dict(
        evict_on_release=True,
        llmfast=LlmfastSettings(verdict_cache=True, coalesce=True),
    )
    TOPOLOGY = dict(sdl_shards=2, ingest_flush_records=8)

    @pytest.mark.parametrize("scenario", ["bts_dos", "null_cipher"])
    def test_eviction_cache_and_shards_compose(self, trained_lstm, scenario):
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        run = run_deployed(
            trained_lstm,
            runtime=RuntimeSettings(**self.TOPOLOGY),
            attack=factory,
            net_kwargs=net_kwargs,
            percentile=80.0,
            **self.SETTINGS,
        )
        assert len(run.mobiwatch.anomalies) > 0
        assert len(run.analyzer.verdicts) > 0
        ingest = run.ric.e2term.ingest_batcher.stats()
        assert ingest["offered"] == ingest["ingested"] + ingest["dropped"] + ingest["pending"]
        ledger = run.analyzer.ledger()
        assert ledger["offered"] == (
            ledger["analyzed"]
            + ledger["coalesced"]
            + ledger["cache_hits"]
            + ledger["shed"]
            + ledger["pending"]
        ), ledger
        assert run.mobiwatch.sessions_evicted > 0


class TestOneOperatingClock:
    """The score provider models no completion time: an alarm carries the
    sim clock of the event that emitted it, and the scoring wall-time
    histogram gets one observation per provider call — at most one per
    tick."""

    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_alarms_stamped_at_emission(self, trained_lstm, scenario):
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        stamps, provider_calls, walks = [], [], []

        def observe(xsec):
            watch = xsec.mobiwatch
            alert, provider = watch._maybe_alert, watch._batch_scores
            tick, score_one = watch._tick, watch._score_one

            def stamped_alert(*args):
                emitted = len(watch.anomalies)
                alert(*args)
                stamps.extend(
                    (event.detected_at, watch.sim.now) for event in watch.anomalies[emitted:]
                )

            def counted_provider(ready):
                provider_calls.append(len(ready))
                return provider(ready)

            def counted(walk):
                def wrapper(arg):
                    walks.append(walk.__name__)
                    walk(arg)

                return wrapper

            watch._maybe_alert, watch._batch_scores = stamped_alert, counted_provider
            watch._tick, watch._score_one = counted(tick), counted(score_one)

        xsec = run_deployed(
            trained_lstm,
            attack=factory,
            net_kwargs=net_kwargs,
            percentile=80.0,
            observe=observe,
        )
        watch = xsec.mobiwatch
        assert len(stamps) == len(watch.anomalies) > 0
        assert all(detected_at == now for detected_at, now in stamps)
        wall = xsec.obs.metrics.histogram("mobiwatch.inference_wall_s")
        assert wall.count == len(provider_calls) <= len(walks)
        assert sum(provider_calls) == watch.windows_scored > 0
