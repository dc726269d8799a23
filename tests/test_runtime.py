"""Tests for repro.runtime: the process-parallel RIC service runtime.

The contracts enforced here:

- defaults are the seed path: no worker processes, no sockets, MobiWatch
  scores in-process and ``XsecConfig().runtime`` is all-off;
- the TLV socket transport round-trips messages (including float64
  score matrices, bit-for-bit) and surfaces EOF/garbage as errors;
- supervisor semantics: a worker crash mid-batch leads to a restart with
  no acked result lost and no result duplicated; a crash-looping worker
  hits the bounded-backoff ceiling and is marked failed instead of
  restarting forever; graceful drain delivers every pending score before
  the workers exit;
- ``ProcessScoringPool.scores`` returns, in row order, scores
  bit-identical to calling the detector in-process — also when a worker
  is killed under the call — and the pool's close is idempotent;
- the soak's one trial loop, driven through ``ProcessScoringPool``,
  survives a mid-trial ``kill -9`` with every offered row scored exactly
  once and an intact offered == scored + dropped + pending ledger, and
  its two providers (in-process, worker pool) agree bit for bit;
- with ``runtime.score_in_processes`` on, the live pipeline's
  AnomalyEvent stream is bit-identical to the seed on every attack
  scenario — also combined with eviction, the verdict cache, a sharded
  SDL and the ingest batcher;
- process scoring beside a carried-state tier is refused when the config
  is written, before any worker is spawned;
- on every scoring tier and on process placement an alarm is stamped with
  the sim clock at emission and scoring wall time is observed once per
  provider call.
"""

import copy
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.attacks import (
    BlindDosAttack,
    BtsDosAttack,
    DownlinkIdExtractionAttack,
    NullCipherAttack,
    UplinkIdExtractionAttack,
)
from repro.core import SixGXSec, XsecConfig
from repro.core.framework import build_detector
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.llm.cache import LlmfastSettings
from repro.ml.detector import AutoencoderDetector
from repro.runtime import (
    ProcessScoringPool,
    RuntimeSettings,
    Supervisor,
    WorkerSpec,
)
from repro.runtime import messages
from repro.runtime.settings import default_start_method
from repro.runtime.soak import SoakConfig, build_soak_workload, in_process_provider, run_trial
from repro.runtime.supervisor import FAILED, STOPPED, UP
from repro.runtime.transport import Listener, MsgConnection, TransportError
from repro.runtime.workers import synthetic_worker_main
from repro.ran.core_network import AmfConfig
from repro.ran.network import NetworkConfig

from tests.llm_traces import decision_tuple


# ---------------------------------------------------------------------------
# settings


class TestRuntimeSettings:
    def test_defaults_are_seed_path(self):
        settings = RuntimeSettings()
        assert not settings.score_in_processes
        assert not settings.any_enabled
        assert XsecConfig().runtime == settings

    def test_score_in_processes_enables(self):
        assert RuntimeSettings(score_in_processes=True).any_enabled

    def test_resolved_start_method(self):
        """No knob: fork where the platform has it, spawn elsewhere."""
        assert default_start_method() in multiprocessing.get_all_start_methods()
        assert default_start_method() == (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"sdl_shards": 0},
            {"sdl_replication": 0},
            {"sdl_replication": 3, "sdl_shards": 2},
            {"sdl_shards": -2},
            {"sdl_shards": 1, "sdl_replication": 3},
            {"ingest_flush_records": -4},
            {"max_restarts": -1},
            {"backoff_base_s": 0.0},
            {"backoff_base_s": 3.0, "backoff_max_s": 1.0},
            {"heartbeat_interval_s": 0.0},
            {"heartbeat_interval_s": 2.0, "heartbeat_timeout_s": 1.0},
            {"sdl_replication": 2},  # replicas without the shards to hold them
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeSettings(**kwargs)


# ---------------------------------------------------------------------------
# messages


class TestMessages:
    def test_score_batch_roundtrip_is_bitwise(self):
        from repro import wire

        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((7, 12))
        msg = messages.score_batch(3, ["a", "b", "c", "d", "e", "f", "g"], matrix)
        decoded = wire.decode(wire.encode(msg))
        batch_id, sessions, out = messages.unpack_score_batch(decoded)
        assert batch_id == 3
        assert sessions == ["a", "b", "c", "d", "e", "f", "g"]
        assert out.dtype == np.float64
        assert out.shape == matrix.shape
        assert np.array_equal(
            out.view(np.uint64), np.asarray(matrix, dtype=np.float64).view(np.uint64)
        )

    def test_score_result_carries_plain_floats(self):
        msg = messages.score_result("w0", 9, np.asarray([1.5, 2.5]))
        assert msg["scores"] == [1.5, 2.5]
        assert all(isinstance(s, float) for s in msg["scores"])


# ---------------------------------------------------------------------------
# transport


class TestTransport:
    def test_listener_roundtrip(self):
        with Listener() as listener:
            client = MsgConnection.connect(listener.path, name="client")
            try:
                server = listener.accept()
                client.send_msg(messages.hello("client", os.getpid()))
                msgs = _recv_until(server, 1)
                assert msgs[0]["t"] == messages.HELLO
                assert msgs[0]["worker"] == "client"
                server.send_msg(messages.drain())
                assert _recv_until(client, 1)[0]["t"] == messages.DRAIN
                server.close()
            finally:
                client.close()

    def test_eof_after_buffered_messages(self):
        with Listener() as listener:
            client = MsgConnection.connect(listener.path, name="client")
            server = listener.accept()
            for i in range(3):
                client.send_msg(messages.heartbeat("client", i, 0.0))
            client.close()
            time.sleep(0.05)
            got = server.drain_eof()
            assert [m["processed"] for m in got] == [0, 1, 2]
            assert server.eof
            server.close()

    def test_connect_to_missing_path_raises(self):
        with pytest.raises(TransportError):
            MsgConnection.connect("/tmp/xsec-rt-nonexistent/sup.sock", name="x")


def _recv_until(conn, n, timeout_s=5.0):
    """Collect ``n`` messages from a blocking connection."""
    conn._sock.settimeout(timeout_s)
    out = []
    deadline = time.monotonic() + timeout_s
    while len(out) < n and time.monotonic() < deadline:
        out.extend(conn.recv_msgs_once())
    assert len(out) >= n, f"got {len(out)}/{n} messages"
    return out


# ---------------------------------------------------------------------------
# supervisor semantics (synthetic workers: scores are row sums)


def _dying_worker(name, socket_path, heartbeat_interval_s=0.5):
    """Exits nonzero immediately: drives the crash-loop path."""
    os._exit(1)


def _settings(**kwargs):
    defaults = dict(
        workers=1,
        backoff_base_s=0.02,
        backoff_max_s=0.08,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.0,
    )
    defaults.update(kwargs)
    return RuntimeSettings(**defaults)


def _wait_up(sup, names, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(sup.is_up(n) for n in names):
            return
        sup.poll(timeout_s=0.05)
    raise AssertionError(f"workers never came up: {[n for n in names if not sup.is_up(n)]}")


def _collect(sup, *, until, timeout_s=10.0):
    """Poll, accumulating events and routed messages, until the predicate holds."""
    events, msgs = [], []
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for event in sup.poll(timeout_s=0.05):
            events.append(event)
            if event.kind == "msg":
                msgs.append(event.msg)
        if until(events, msgs):
            return events, msgs
    raise AssertionError(f"condition never held; events={[e.kind for e in events]}")


class TestSupervisor:
    def test_scores_roundtrip_and_health(self):
        with Supervisor(_settings()) as sup:
            sup.add_worker(WorkerSpec("synth-0", synthetic_worker_main))
            sup.start()
            _wait_up(sup, ["synth-0"])
            matrix = np.arange(6.0).reshape(2, 3)
            sup.send("synth-0", messages.score_batch(1, ["a", "b"], matrix))
            _, msgs = _collect(
                sup, until=lambda e, m: any(x["t"] == messages.SCORE_RESULT for x in m)
            )
            result = next(x for x in msgs if x["t"] == messages.SCORE_RESULT)
            assert result["batch_id"] == 1
            assert result["scores"] == [3.0, 12.0]
            health = sup.health()["synth-0"]
            assert health["state"] == UP
            assert health["restarts"] == 0

    def test_crash_mid_batch_restarts_without_acked_loss(self):
        """Worker dies after acking batch 1; batch 2 redispatches post-restart."""
        with Supervisor(_settings()) as sup:
            sup.add_worker(
                WorkerSpec(
                    "synth-0",
                    synthetic_worker_main,
                    {"crash_after_batches": 1},
                )
            )
            sup.start()
            _wait_up(sup, ["synth-0"])
            sup.send("synth-0", messages.score_batch(1, ["a"], np.asarray([[2.0, 3.0]])))
            # The ack for batch 1 must arrive even though the worker dies
            # immediately after sending it (drained from the dead socket).
            events, msgs = _collect(
                sup,
                until=lambda e, m: any(x.kind == "died" for x in e)
                and any(x["t"] == messages.SCORE_RESULT for x in m),
            )
            acked = [x for x in msgs if x["t"] == messages.SCORE_RESULT]
            assert [x["batch_id"] for x in acked] == [1]
            assert acked[0]["scores"] == [5.0]
            # Batch 2 was never acked: redispatch after the restart.
            _wait_up(sup, ["synth-0"])
            sup.send("synth-0", messages.score_batch(2, ["b"], np.asarray([[4.0, 5.0]])))
            _, msgs2 = _collect(
                sup,
                until=lambda e, m: any(
                    x["t"] == messages.SCORE_RESULT and x["batch_id"] == 2 for x in m
                ),
            )
            result = next(x for x in msgs2 if x["batch_id"] == 2)
            assert result["scores"] == [9.0]
            assert sup.health()["synth-0"]["restarts"] == 1

    def test_crash_loop_hits_backoff_ceiling_then_fails(self):
        settings = _settings(max_restarts=3, crash_loop_window_s=60.0)
        with Supervisor(settings) as sup:
            sup.add_worker(WorkerSpec("dying-0", _dying_worker))
            sup.start()
            events, _ = _collect(
                sup,
                until=lambda e, m: any(x.kind == "failed" for x in e),
                timeout_s=20.0,
            )
            restarts = [e for e in events if e.kind == "restarting"]
            deaths = [e for e in events if e.kind == "died"]
            # max_restarts backoffs, then the (max_restarts+1)-th crash fails it.
            assert len(restarts) == settings.max_restarts
            assert len(deaths) == settings.max_restarts + 1
            delays = [e.delay_s for e in restarts]
            expected = [
                min(settings.backoff_base_s * 2**n, settings.backoff_max_s)
                for n in range(settings.max_restarts)
            ]
            assert delays == pytest.approx(expected)
            assert delays[-1] == settings.backoff_max_s  # ceiling reached
            assert sorted(delays) == delays  # monotone non-decreasing
            assert sup.worker_state("dying-0") == FAILED
            # A failed worker stays failed: no further respawns.
            sup.poll(timeout_s=0.2)
            assert sup.worker_state("dying-0") == FAILED

    def test_kill_minus_nine_reports_signal_exitcode(self):
        with Supervisor(_settings()) as sup:
            sup.add_worker(WorkerSpec("synth-0", synthetic_worker_main))
            sup.start()
            _wait_up(sup, ["synth-0"])
            sup.kill_worker("synth-0")
            events, _ = _collect(
                sup, until=lambda e, m: any(x.kind == "died" for x in e)
            )
            death = next(e for e in events if e.kind == "died")
            assert death.exitcode == -9
            _wait_up(sup, ["synth-0"])  # and it comes back
            assert sup.health()["synth-0"]["restarts"] == 1

    def test_graceful_drain_delivers_pending_scores(self):
        """Drain after dispatch: slow workers still ack everything, exit 0."""
        with Supervisor(_settings(workers=2)) as sup:
            for i in range(2):
                sup.add_worker(
                    WorkerSpec(
                        f"synth-{i}",
                        synthetic_worker_main,
                        {"service_time_s": 0.1},
                    )
                )
            sup.start()
            _wait_up(sup, ["synth-0", "synth-1"])
            for batch_id in range(4):
                sup.send(
                    f"synth-{batch_id % 2}",
                    messages.score_batch(
                        batch_id, [batch_id], np.asarray([[float(batch_id), 1.0]])
                    ),
                )
            events = sup.drain()
            acked = [
                e.msg["batch_id"]
                for e in events
                if e.kind == "msg" and e.msg["t"] == messages.SCORE_RESULT
            ]
            assert sorted(acked) == [0, 1, 2, 3]
            assert sup.worker_state("synth-0") == STOPPED
            assert sup.worker_state("synth-1") == STOPPED
            # Drain-exit is not a crash: no restarts, no crash counters.
            assert all(w["restarts"] == 0 for w in sup.health().values())


# ---------------------------------------------------------------------------
# process scoring pool (the MobiWatch bridge)


@pytest.fixture(scope="module")
def tiny_detector():
    detector = AutoencoderDetector(
        window=4, feature_dim=6, hidden_dim=16, latent_dim=4, seed=3
    )
    rng = np.random.default_rng(3)
    detector.fit(rng.random((80, 24)), epochs=2, lr=0.05)
    return detector


class TestProcessScoringPool:
    @staticmethod
    def batch(n, seed=11):
        matrix = np.random.default_rng(seed).random((n, 24))
        return list(range(n)), matrix

    @staticmethod
    def in_process(detector, matrix):
        return [float(detector.scores(row.reshape(1, -1))[0]) for row in matrix]

    def test_scores_bit_identical_to_in_process(self, tiny_detector):
        session_ids, matrix = self.batch(10)
        with ProcessScoringPool(tiny_detector, RuntimeSettings(workers=2)) as pool:
            got = pool.scores(session_ids, matrix)
            assert pool.scores([], matrix[:0]) == []
        # Bitwise: same NumPy, each row scored as its own [1, dim] call.
        assert got == self.in_process(tiny_detector, matrix)
        assert all(type(score) is float for score in got)
        assert pool.windows_scored == 10
        assert 1 <= pool.batches <= 2  # one frame per worker that got rows

    def test_scores_in_row_order(self, tiny_detector):
        # Rows interleave across the two workers; the result does not.
        matrix = np.stack([np.full(24, 0.1 * i) for i in range(8)])
        with ProcessScoringPool(tiny_detector, RuntimeSettings(workers=2)) as pool:
            workers = {pool.worker_for(i) for i in range(8)}
            got = pool.scores(list(range(8)), matrix)
        assert len(workers) == 2
        assert got == self.in_process(tiny_detector, matrix)

    def test_close_is_idempotent(self, tiny_detector):
        pool = ProcessScoringPool(tiny_detector, RuntimeSettings(workers=1))
        session_ids, matrix = self.batch(3)
        assert len(pool.scores(session_ids, matrix)) == 3
        pool.close()
        assert pool.closed
        pool.close()
        with pytest.raises(RuntimeError):
            pool.scores(session_ids, matrix)
        # All workers were shut down, not crash-looped.
        assert all(
            w["state"] in (STOPPED, FAILED) and w["restarts"] == 0
            for w in pool.supervisor.health().values()
        )

    def test_sticky_deterministic_assignment(self, tiny_detector):
        with ProcessScoringPool(tiny_detector, RuntimeSettings(workers=4)) as pool:
            first = {s: pool.worker_for(s) for s in range(32)}
            assert {pool.worker_for(s) for s in range(32)} == set(first.values())
            for s, worker in first.items():
                assert pool.worker_for(s) == worker

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_nine_under_the_call_loses_and_duplicates_nothing(
        self, tiny_detector, workers
    ):
        """A worker SIGKILLed with its batch unacked: the batch is re-sent
        whole — to the survivor, or (one worker) to the restarted process —
        and every row still gets exactly its own score."""
        session_ids, matrix = self.batch(12)
        expected = self.in_process(tiny_detector, matrix)
        with ProcessScoringPool(tiny_detector, _settings(workers=workers)) as pool:
            assert pool.scores(session_ids, matrix) == expected
            victim = pool.worker_for(session_ids[0])
            pool.supervisor.kill_worker(victim)
            assert pool.scores(session_ids, matrix) == expected
            assert pool.redispatched_batches >= 1
            # The restarted worker serves again; nothing was scored twice.
            _wait_up(pool.supervisor, [victim])
            assert pool.scores(session_ids, matrix) == expected
            assert pool.windows_scored == 36
            assert pool.stats()["health"][victim]["restarts"] == 1


# ---------------------------------------------------------------------------
# the soak's trial loop: fault injection, ledger, the two providers


@pytest.fixture(scope="module")
def soak_workload():
    config = SoakConfig(
        sessions=32,
        bank_records=192,
        hidden_dim=32,
        latent_dim=8,
        train_epochs=1,
        dispatch_records=8,
        dispatch_interval_s=0.005,
    )
    bank, detector = build_soak_workload(config)
    return config, bank, detector


class TestSoakTrial:
    def test_kill_nine_mid_trial_loses_no_acked_work(self, soak_workload):
        """kill -9 of a pool worker mid-trial: every offered row still gets
        exactly one score, the worker is restarted, the ledger balances."""
        config, bank, detector = soak_workload
        with ProcessScoringPool(detector, config.runtime_settings(), name="soak") as pool:
            trial = run_trial(pool.scores, bank, 150.0, 2.0, config, pool=pool, kill_at_s=0.5)
        assert trial.killed_worker is not None
        assert sorted(trial.row_ids) == list(range(trial.offered))
        assert trial.exactly_once
        assert trial.dropped == trial.pending == 0
        assert trial.offered == trial.scored + trial.dropped + trial.pending
        assert trial.restarts >= 1

    def test_providers_agree_bit_for_bit(self, soak_workload):
        """In-process and through a 2-worker pool, every row gets the same
        score: both providers are row-exact, so the batch grouping the
        clock happens to produce cannot change a score."""
        config, bank, detector = soak_workload

        def per_row(trial):
            assert trial.exactly_once
            return np.asarray(trial.scores)[np.argsort(trial.row_ids)]

        inproc = run_trial(in_process_provider(detector), bank, 200.0, 0.5, config)
        with ProcessScoringPool(detector, RuntimeSettings(workers=2), name="soak") as pool:
            proc = run_trial(pool.scores, bank, 200.0, 0.5, config, pool=pool)
        assert proc.offered == inproc.offered == 100
        assert per_row(proc).tobytes() == per_row(inproc).tobytes()


# ---------------------------------------------------------------------------
# live pipeline: seed defaults + bit-identity per attack scenario


@pytest.fixture(scope="module")
def benign_windows():
    capture = generate_benign_dataset(
        BenignDatasetConfig(duration_s=90.0, ue_mix=(("pixel5", 1), ("oai_ue", 1)))
    )
    config = XsecConfig()
    return capture.labeled(config.spec, config.window, "benign").windowed.windows


@pytest.fixture(scope="module")
def trained_lstm(benign_windows):
    config = XsecConfig(detector="lstm", train_epochs=6)
    detector = build_detector(config)
    detector.fit(np.asarray(benign_windows), epochs=6, lr=config.train_lr)
    return detector


@pytest.fixture(scope="module")
def calibrated_lstm(benign_windows):
    """Built under scoring="int8" (the calibration pass ran), so one
    detector deploys on every scoring tier."""
    config = XsecConfig(detector="lstm", train_epochs=6, scoring="int8")
    detector = build_detector(config)
    detector.fit(np.asarray(benign_windows), epochs=6, lr=config.train_lr)
    assert detector.calibration is not None
    return detector


def _uplink_extraction(net):
    victim = net.add_ue("pixel6", name="victim")
    net.sim.schedule(2.5, victim.start_session)
    return UplinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=10.0)


def _downlink_extraction(net):
    victim = net.add_ue("pixel6", name="victim")
    net.sim.schedule(2.5, victim.start_session)
    return DownlinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=10.0)


# name -> (attack factory taking the live network, extra NetworkConfig kwargs)
ATTACK_SCENARIOS = {
    "bts_dos": (
        lambda net: BtsDosAttack(net, start_time=3.0, connections=8, interval_s=0.08),
        {},
    ),
    "blind_dos": (
        lambda net: BlindDosAttack(net, victim=net.ues[0], start_time=3.0, replays=5),
        {},
    ),
    "uplink_id_extraction": (_uplink_extraction, {}),
    "downlink_id_extraction": (_downlink_extraction, {}),
    "null_cipher": (
        lambda net: NullCipherAttack(net, start_time=3.0),
        {"amf": AmfConfig(allow_null_algorithms=True)},
    ),
}


def run_live(
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

    ``settings`` are further ``XsecConfig`` fields (``scoring=``,
    ``evict_on_release=``, ``llmfast=``); ``observe(xsec)`` runs
    after the deploy and before the first event.
    """
    config = XsecConfig(
        detector=detector.name,
        train_epochs=6,
        runtime=runtime or RuntimeSettings(),
        **settings,
    )
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=seed, **(net_kwargs or {})))
    try:
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
    finally:
        xsec.close()
    return xsec


def event_tuples(xsec):
    return [
        (
            e.detected_at,
            e.session_id,
            e.rnti,
            e.s_tmsi,
            e.score,
            e.threshold,
            e.record_indices,
            e.newest_record_ts,
        )
        for e in xsec.mobiwatch.anomalies
    ]


class TestSeedDefaults:
    def test_default_config_keeps_in_process_scoring(self, trained_lstm):
        xsec = SixGXSec(XsecConfig(detector="lstm"))
        xsec.deploy_detector(copy.deepcopy(trained_lstm))
        assert xsec.mobiwatch.pool is None
        assert xsec.mobiwatch._scoring_path == "seed"
        xsec.close()  # no-op on the seed path

    def test_score_in_processes_swaps_the_pool(self, trained_lstm):
        config = XsecConfig(
            detector="lstm", runtime=RuntimeSettings(score_in_processes=True)
        )
        xsec = SixGXSec(config)
        try:
            xsec.deploy_detector(copy.deepcopy(trained_lstm))
            assert isinstance(xsec.mobiwatch.pool, ProcessScoringPool)
            assert xsec.mobiwatch._scoring_path == "process-2w"
        finally:
            xsec.close()
        assert xsec.mobiwatch.pool.closed

    @pytest.mark.parametrize("scoring", ["incremental", "incremental-float32", "int8"])
    def test_losing_flag_spawns_no_idle_workers(self, scoring):
        """A carried-state tier keeps per-session state in this process, so
        worker processes beside it would heartbeat for the whole run and
        score nothing: the config is refused, naming both fields, before
        anything is spawned."""
        children = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="scoring.*runtime.score_in_processes"):
            XsecConfig(
                detector="lstm",
                scoring=scoring,
                runtime=RuntimeSettings(score_in_processes=True),
            )
        assert set(multiprocessing.active_children()) == children


class TestRuntimeScenarioEquality:
    """Process scoring must not perturb the reproduction: AnomalyEvents
    from supervised worker processes are bit-identical to seed scoring."""

    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_process_scoring_bit_identical_to_seed(self, trained_lstm, scenario):
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        seed_run = run_live(trained_lstm, attack=factory, net_kwargs=net_kwargs)
        proc = run_live(
            trained_lstm,
            runtime=RuntimeSettings(score_in_processes=True),
            attack=factory,
            net_kwargs=net_kwargs,
        )
        assert proc.mobiwatch._scoring_path == "process-2w"
        assert proc.mobiwatch.records_seen == seed_run.mobiwatch.records_seen
        assert proc.mobiwatch.windows_scored == seed_run.mobiwatch.windows_scored
        assert proc.mobiwatch.windows_scored > 0
        assert event_tuples(proc) == event_tuples(seed_run)



def stopped(pool):
    return pool.closed and all(
        worker["state"] == STOPPED for worker in pool.supervisor.health().values()
    )


class TestFlagCombination:
    """Release eviction x verdict cache + coalescing x a sharded SDL behind
    the ingest batcher x process scoring: each has its own suite, the four
    had never run together."""

    SETTINGS = dict(
        evict_on_release=True,
        llmfast=LlmfastSettings(verdict_cache=True, coalesce=True),
    )
    TOPOLOGY = dict(sdl_shards=2, ingest_flush_records=8)

    @pytest.mark.parametrize("scenario", ["bts_dos", "null_cipher"])
    def test_process_scoring_equals_in_process(self, trained_lstm, scenario):
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        common = dict(attack=factory, net_kwargs=net_kwargs, percentile=80.0, **self.SETTINGS)
        inproc = run_live(trained_lstm, runtime=RuntimeSettings(**self.TOPOLOGY), **common)
        proc = run_live(
            trained_lstm,
            runtime=RuntimeSettings(score_in_processes=True, **self.TOPOLOGY),
            **common,
        )
        assert proc.mobiwatch._scoring_path == "process-2w"
        assert len(inproc.mobiwatch.anomalies) > 0
        assert event_tuples(proc) == event_tuples(inproc)
        assert len(inproc.analyzer.verdicts) > 0
        assert [
            (v.anomaly.session_id, v.completed_at, decision_tuple(v.verdict.response))
            for v in proc.analyzer.verdicts
        ] == [
            (v.anomaly.session_id, v.completed_at, decision_tuple(v.verdict.response))
            for v in inproc.analyzer.verdicts
        ]
        for run in (inproc, proc):
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
        assert proc.analyzer.ledger() == inproc.analyzer.ledger()
        assert proc.mobiwatch.pool.windows_scored == proc.mobiwatch.windows_scored
        assert stopped(proc.mobiwatch.pool)


# Every scoring tier, plus process placement: (XsecConfig fields, the
# provenance label the deployment stamps on each score).
STRATEGIES = {
    "inline": ({"scoring": "exact"}, "seed"),
    "float32": ({"scoring": "float32"}, "compiled-float32"),
    "incremental": ({"scoring": "incremental"}, "incremental-float64"),
    "incremental-float32": ({"scoring": "incremental-float32"}, "incremental-float32"),
    "quantized": ({"scoring": "int8"}, "quantized-int8-float16"),
    "process": ({"runtime": RuntimeSettings(score_in_processes=True)}, "process-2w"),
}


class TestOneOperatingClock:
    """No strategy models a completion time: an alarm carries the sim clock
    of the event that emitted it, and the scoring wall-time histogram gets
    one observation per provider call — at most one per tick."""

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_alarms_stamped_at_emission(self, calibrated_lstm, scenario, strategy):
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        settings, scoring_path = STRATEGIES[strategy]
        stamps, provider_calls, walks = [], [], []

        def observe(xsec):
            watch = xsec.mobiwatch
            assert watch._scoring_path == scoring_path
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

        xsec = run_live(
            calibrated_lstm,
            attack=factory,
            net_kwargs=net_kwargs,
            percentile=80.0,
            observe=observe,
            **settings,
        )
        watch = xsec.mobiwatch
        assert len(stamps) == len(watch.anomalies) > 0
        assert all(detected_at == now for detected_at, now in stamps)
        wall = xsec.obs.metrics.histogram("mobiwatch.inference_wall_s")
        assert wall.count == len(provider_calls) <= len(walks)
        assert sum(provider_calls) == watch.windows_scored > 0
