"""Command-line interface: ``python -m repro <command>``.

Gives operators the paper's workflow without writing code:

- ``collect``  — run the simulated testbed and save telemetry (.mfl) and
  the raw capture (.pcap);
- ``train``    — train a MobiWatch detector on a benign telemetry file and
  save it (.npz);
- ``detect``   — score a telemetry file with a saved detector and print
  the flagged sessions;
- ``explain``  — run LLM expert referencing over a session of a telemetry
  file and print the analysis;
- ``report``   — regenerate one of the paper's tables/figures;
- ``obs``      — run the live testbed and dump the observability artifacts:
  the per-stage closed-loop latency breakdown (capture -> indication ->
  detection -> verdict -> action) and the metrics registry;
- ``slo``      — run the live testbed with the full observability plane on
  (SLO engine, profiler, exporter, provenance) and render per-objective
  attainment/burn (``report``), the alert transition log (``alerts``),
  the per-stage self-time profile (``profile``), or one verdict's full
  evidence chain (``explain``) — see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _cmd_collect(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import (
        AttackDatasetConfig,
        BenignDatasetConfig,
        generate_attack_dataset,
        generate_benign_dataset,
    )
    from repro.telemetry.persist import save_pcap, save_series

    if args.kind == "benign":
        capture = generate_benign_dataset(
            BenignDatasetConfig(seed=args.seed, duration_s=args.duration)
        )
    else:
        capture = generate_attack_dataset(
            AttackDatasetConfig(seed=args.seed, duration_s=args.duration)
        )
    written = save_series(capture.series, args.out)
    print(
        f"collected {len(capture.series)} MobiFlow records "
        f"({capture.stats.sessions_completed} completed sessions) -> "
        f"{args.out} ({written} bytes)"
    )
    if args.pcap:
        pcap_bytes = save_pcap(capture.net.pcap, args.pcap)
        print(f"raw capture -> {args.pcap} ({pcap_bytes} bytes)")
    if args.kind == "attack":
        for attack in capture.attacks:
            hits = sum(1 for r in capture.series if attack.is_malicious(r))
            print(f"  armed {attack.name}: {hits} malicious records")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.config import XsecConfig
    from repro.core.framework import build_detector
    from repro.ml.serialize import save_detector
    from repro.telemetry.features import WindowedDataset
    from repro.telemetry.persist import load_series

    config = XsecConfig(detector=args.detector)
    series = load_series(args.data)
    windowed = WindowedDataset.from_series(series, config.spec, config.window)
    detector = build_detector(config)
    report = detector.fit(windowed.windows, epochs=args.epochs, lr=config.train_lr)
    save_detector(detector, args.model)
    print(
        f"trained {args.detector} on {windowed.num_windows} windows "
        f"({args.epochs} epochs, final loss {report.final_loss:.5f})"
    )
    print(f"threshold (p{detector.threshold.percentile:g}) = {detector.threshold.threshold:.5f}")
    print(f"model -> {args.model}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.core.config import XsecConfig
    from repro.ml.serialize import load_detector
    from repro.obs.provenance import printable
    from repro.telemetry.features import WindowedDataset
    from repro.telemetry.persist import load_series

    detector = load_detector(args.model)
    config = XsecConfig()
    series = load_series(args.data)
    windowed = WindowedDataset.from_series(series, config.spec, detector.window)
    scores = detector.scores(windowed.windows)
    threshold = detector.threshold.threshold or 0.0
    flagged_sessions: dict[int, float] = {}
    for i in range(windowed.num_windows):
        if scores[i] > threshold:
            session = series[windowed.record_indices(i)[0]].session_id
            flagged_sessions[session] = max(
                flagged_sessions.get(session, 0.0), float(scores[i])
            )
    alarms = int((scores > threshold).sum())
    print(
        f"{windowed.num_windows} windows scored; {alarms} above "
        f"threshold {threshold:.5f}; {len(flagged_sessions)} sessions flagged"
    )
    for session, peak in sorted(flagged_sessions.items()):
        records = [r for r in series if r.session_id == session]
        # Record text is untrusted: escaped, line breaks too (one line each).
        messages = ", ".join(printable(r.msg).replace("\n", "\\n") for r in records[:6])
        print(f"  session {session}: peak score {peak:.4f} [{messages} ...]")
    return 0 if not args.fail_on_alarm or alarms == 0 else 2


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.llm.analyst import ExpertAnalyst
    from repro.llm.client import LlmClient, SimulatedLlmServer
    from repro.obs.provenance import printable
    from repro.telemetry.persist import load_series

    series = load_series(args.data)
    records = [r for r in series if r.session_id == args.session]
    if not records:
        print(f"no records for session {args.session}", file=sys.stderr)
        return 1
    analyst = ExpertAnalyst(
        client=LlmClient(server=SimulatedLlmServer(), model=args.model),
        use_rag=args.rag,
    )
    verdict = analyst.analyze(records, detector_flagged=True)
    print(f"model: {args.model} (rag={'on' if args.rag else 'off'})")
    print(printable(verdict.response.raw_text))
    if verdict.needs_human_review:
        print("\n!! contradicts the detector verdict: escalate to human review")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.artifact == "table2":
        from repro.experiments.table2 import run_table2

        print(run_table2().render())
    elif args.artifact == "table3":
        from repro.experiments.table3 import run_table3

        print(run_table3().render())
    elif args.artifact == "figure4":
        from repro.experiments.figure4 import run_figure4

        print(run_figure4().render())
    elif args.artifact == "figure5":
        from repro.experiments.figure5 import run_figure5

        print(run_figure5().render())
    elif args.artifact == "rag":
        from repro.experiments.rag_study import run_rag_study

        print(run_rag_study().render())
    elif args.artifact == "scale":
        from repro.experiments.scale import run_scale_experiment

        print(run_scale_experiment().render())
    else:  # poisoning
        from repro.experiments.poisoning import run_poisoning_experiment

        print(run_poisoning_experiment().render())
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.testbed import LiveTestbedConfig, run_live_testbed

    run = run_live_testbed(LiveTestbedConfig(live_duration_s=args.duration))
    print(run.render_stage_breakdown())
    latency = run.latency
    print(
        f"\nnear-RT budget check: detection (capture->alarm) "
        f"max={latency['detection_s'].get('max', 0.0):.4f}s (budget 1.0s)"
    )
    print(f"summary: {run.summary}\n")
    registry = run.xsec.obs.metrics
    print(registry.render())
    if args.logs:
        print(f"\nlast {args.logs} structured log records:")
        print(run.xsec.obs.logger.render(limit=args.logs))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "stage_breakdown": run.stage_breakdown,
                    "latency": run.latency,
                    "summary": run.summary,
                    "metrics": run.metrics_snapshot,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        print(f"\nobs snapshot -> {args.json}")
    if args.jsonl:
        # One snapshot() line: the format `slo --jsonl` appends on its cadence.
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(registry.snapshot(), sort_keys=True) + "\n")
        print(f"metrics JSONL -> {args.jsonl}")
    detection_max = latency["detection_s"].get("max")
    return 0 if detection_max is not None and detection_max < 1.0 else 3


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.core.config import XsecConfig
    from repro.experiments.testbed import LiveTestbedConfig, run_live_testbed
    from repro.obs.exporter import render_openmetrics

    config = XsecConfig(
        auto_release=True,
        auto_blocklist=True,
        slo_enabled=True,
        slo_export_path=args.jsonl,
    )
    run = run_live_testbed(
        LiveTestbedConfig(xsec=config, live_duration_s=args.duration)
    )
    xsec = run.xsec
    obs = xsec.obs
    store = xsec.mobiwatch.provenance
    incidents = xsec.pipeline.incidents
    status = 0
    try:
        if args.action == "report":
            print(obs.engine.render())
            # Evaluated at sim end: the testbed drains ~20s past the last
            # traffic, so idle components legitimately read stale/down.
            print("\ncomponent health (at sim end, after the drain tail):")
            statuses = obs.scoreboard.statuses()
            if statuses:
                for name, state in sorted(statuses.items()):
                    print(f"  {name:<28} {state}")
            else:
                print("  (no components registered)")
            closed = sum(1 for incident in incidents if incident.verdict is not None)
            print(
                f"\n{len(store)} provenance records minted, "
                f"{len(incidents)} incidents ({closed} closed with a verdict, "
                f"{len(incidents) - closed} pending), "
                f"{len(obs.engine.events)} alert transitions "
                f"(see `slo alerts`)"
            )
        elif args.action == "alerts":
            print(obs.engine.render_alerts())
        elif args.action == "profile":
            print(obs.profiler.render())
        else:  # explain
            chain = xsec.pipeline.explain(args.verdict)
            if chain is None:
                known = ", ".join(
                    str(i.anomaly.provenance_id)
                    for i in incidents
                    if i.anomaly.provenance_id is not None
                )
                print(
                    f"no provenance record {args.verdict!r} (known ids: {known or 'none'})",
                    file=sys.stderr,
                )
                status = 1
            else:
                print(chain)
        if args.openmetrics:
            with open(args.openmetrics, "w", encoding="utf-8") as fh:
                fh.write(render_openmetrics(obs.metrics))
            print(f"openmetrics dump -> {args.openmetrics}")
        if args.jsonl:
            print(f"metric snapshots (JSONL) -> {args.jsonl}")
        if args.stacks:
            with open(args.stacks, "w", encoding="utf-8") as fh:
                stacks = obs.profiler.collapsed_stacks()
                fh.write(stacks + ("\n" if stacks and not stacks.endswith("\n") else ""))
            print(f"collapsed flamegraph stacks -> {args.stacks}")
        if args.json:
            payload = {
                "objectives": obs.engine.report(),
                "alerts": [
                    {
                        "time_s": e.time_s,
                        "objective": e.objective,
                        "to_state": e.to_state,
                        "fast_burn": e.fast_burn,
                        "slow_burn": e.slow_burn,
                    }
                    for e in obs.engine.events
                ],
                "health": obs.scoreboard.statuses(),
                "profile": obs.profiler.stage_table(),
                "provenance_records": len(store),
                "incidents": len(incidents),
                "summary": run.summary,
            }
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"slo snapshot -> {args.json}")
    finally:
        xsec.close()
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="6G-XSec reproduction command line"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    collect = commands.add_parser("collect", help="run the testbed, save telemetry")
    collect.add_argument("--kind", choices=("benign", "attack"), default="benign")
    collect.add_argument("--out", required=True, help="output .mfl telemetry file")
    collect.add_argument("--pcap", help="also save the raw capture here")
    collect.add_argument("--seed", type=int, default=1)
    collect.add_argument("--duration", type=float, default=240.0)
    collect.set_defaults(func=_cmd_collect)

    train = commands.add_parser("train", help="train a detector on benign telemetry")
    train.add_argument("--data", required=True, help="benign .mfl telemetry file")
    train.add_argument("--model", required=True, help="output .npz model file")
    train.add_argument("--detector", choices=("autoencoder", "lstm"), default="autoencoder")
    train.add_argument("--epochs", type=int, default=50)
    train.set_defaults(func=_cmd_train)

    detect = commands.add_parser("detect", help="score telemetry with a saved model")
    detect.add_argument("--data", required=True)
    detect.add_argument("--model", required=True)
    detect.add_argument(
        "--fail-on-alarm", action="store_true", help="exit 2 when anomalies are found"
    )
    detect.set_defaults(func=_cmd_detect)

    explain = commands.add_parser("explain", help="LLM analysis of one session")
    explain.add_argument("--data", required=True)
    explain.add_argument("--session", type=int, required=True)
    explain.add_argument("--model", default="chatgpt-4o")
    explain.add_argument("--rag", action="store_true")
    explain.set_defaults(func=_cmd_explain)

    report = commands.add_parser("report", help="regenerate a paper artifact")
    report.add_argument(
        "artifact",
        choices=("table2", "table3", "figure4", "figure5", "rag", "poisoning", "scale"),
    )
    report.set_defaults(func=_cmd_report)

    obs = commands.add_parser(
        "obs", help="run the live testbed, dump metrics + loop-stage latency"
    )
    obs.add_argument(
        "--duration", type=float, default=60.0, help="live traffic duration (sim s)"
    )
    obs.add_argument("--json", help="write the full obs snapshot here (.json)")
    obs.add_argument("--jsonl", help="write one metrics snapshot line here (.jsonl)")
    obs.add_argument(
        "--logs", type=int, default=0, help="also print the last N structured logs"
    )
    obs.set_defaults(func=_cmd_obs)

    slo = commands.add_parser(
        "slo",
        help="run the live testbed fully observed; report SLO attainment, "
        "alerts, profiles, or one verdict's evidence chain",
    )
    slo.add_argument(
        "action",
        choices=("report", "alerts", "profile", "explain"),
        help="what to render after the run",
    )
    slo.add_argument(
        "verdict",
        type=int,
        nargs="?",
        help="provenance id for `explain` (default: the latest incident)",
    )
    slo.add_argument(
        "--duration", type=float, default=60.0, help="live traffic duration (sim s)"
    )
    slo.add_argument("--openmetrics", help="write the OpenMetrics exposition here")
    slo.add_argument(
        "--jsonl", help="write the continuous metric snapshots here (.jsonl)"
    )
    slo.add_argument(
        "--stacks", help="write collapsed flamegraph stacks here (.txt)"
    )
    slo.add_argument("--json", help="write the machine-readable snapshot here")
    slo.set_defaults(func=_cmd_slo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
