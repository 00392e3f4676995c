"""Command-line interface.

Workflows a downstream user needs without writing code::

    repro-dpi generate-patterns --style snort --count 1000 --out pats.txt
    repro-dpi generate-trace --packets 200 --patterns pats.txt --out t.rtrc
    repro-dpi scan --patterns pats.txt --trace t.rtrc --engine ac
    repro-dpi demo

Pattern files hold one pattern per line, base64-encoded; lines starting
with ``re:`` are regular expressions, ``#`` lines are comments.
"""

from __future__ import annotations

import argparse
import base64
import sys
import time
from pathlib import Path

from repro.core.aho_corasick import AhoCorasick
from repro.core.kernels import KERNEL_NAMES
from repro.core.patterns import Pattern, PatternKind
from repro.core.wu_manber import WuManber
from repro.autoscale.policies import POLICY_NAMES as LOAD_POLICY_NAMES
from repro.load.profiles import RAMP_KINDS as LOAD_RAMP_KINDS
from repro.load.profiles import SCENARIOS as LOAD_SCENARIOS
from repro.workloads.patterns import generate_clamav_like, generate_snort_like
from repro.workloads.traces import load_trace, save_trace
from repro.workloads.traffic import TrafficGenerator


def write_pattern_file(path, literals, regexes=()) -> int:
    """Write a pattern file; returns the number of patterns written."""
    lines = ["# repro-dpi pattern file: base64 per line, re: prefix = regex"]
    for literal in literals:
        lines.append(base64.b64encode(literal).decode("ascii"))
    for regex in regexes:
        lines.append("re:" + base64.b64encode(regex).decode("ascii"))
    Path(path).write_text("\n".join(lines) + "\n")
    return len(literals) + len(regexes)


def read_pattern_file(path) -> list:
    """Read a pattern file into :class:`Pattern` objects."""
    patterns = []
    for line_number, raw_line in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        kind = PatternKind.LITERAL
        if line.startswith("re:"):
            kind = PatternKind.REGEX
            line = line[3:]
        try:
            data = base64.b64decode(line, validate=True)
        except Exception:
            raise ValueError(
                f"{path}:{line_number}: not valid base64: {line[:40]!r}"
            ) from None
        patterns.append(Pattern(pattern_id=len(patterns), data=data, kind=kind))
    return patterns


def _cmd_generate_patterns(args) -> int:
    generators = {"snort": generate_snort_like, "clamav": generate_clamav_like}
    literals = generators[args.style](count=args.count, seed=args.seed)
    written = write_pattern_file(args.out, literals)
    print(f"wrote {written} {args.style}-like patterns to {args.out}")
    return 0


def _cmd_generate_trace(args) -> int:
    patterns = None
    if args.patterns:
        patterns = [p.data for p in read_pattern_file(args.patterns)]
    generator = TrafficGenerator(seed=args.seed, style=args.style)
    trace = generator.trace(
        args.packets,
        patterns=patterns,
        match_rate=args.match_rate,
        num_flows=args.flows,
    )
    save_trace(trace, args.out)
    print(
        f"wrote {len(trace)} packets ({trace.total_bytes} bytes) to {args.out}"
    )
    return 0


def _cmd_scan(args) -> int:
    if args.layout and args.engine != "ac":
        print("scan: --layout applies to --engine ac only", file=sys.stderr)
        return 2
    patterns = read_pattern_file(args.patterns)
    literals = [p.data for p in patterns if p.kind is PatternKind.LITERAL]
    if not literals:
        print("pattern file holds no literal patterns", file=sys.stderr)
        return 2
    trace = load_trace(args.trace)
    layout = args.layout or "sparse"
    if args.engine == "ac":
        engine = AhoCorasick(literals, layout=layout)
    elif args.engine == "combined":
        from repro.core.combined import CombinedAutomaton

        pattern_sets = {0: [Pattern(i, data) for i, data in enumerate(literals)]}
        automaton = CombinedAutomaton(pattern_sets, kernel=args.kernel)

        def count_combined(payload):
            return sum(
                len(automaton.match_entry(state))
                for state, _ in automaton.scan(payload).raw_matches
            )

        engine = automaton
        engine.count_matches = count_combined
    else:
        engine = WuManber(literals)
    started = time.perf_counter()
    total_matches = 0
    matched_packets = 0
    for payload in trace.payloads:
        found = engine.count_matches(payload)
        total_matches += found
        if found:
            matched_packets += 1
    elapsed = time.perf_counter() - started
    mbps = trace.total_bytes * 8 / elapsed / 1e6 if elapsed > 0 else float("inf")
    detail = ""
    if args.engine == "ac":
        detail = f" ({layout})"
    elif args.engine == "combined":
        detail = f" (kernel={args.kernel})"
    print(f"engine: {args.engine}" + detail)
    print(f"packets: {len(trace)}  bytes: {trace.total_bytes}")
    print(f"matched packets: {matched_packets}  total matches: {total_matches}")
    print(f"throughput: {mbps:.2f} Mbps")
    return 0


def _cmd_report(args) -> int:
    from repro.telemetry.export import export_jsonl, prometheus_text
    from repro.telemetry.report import render_report
    from repro.telemetry.scenario import run_figure5_scenario

    result = run_figure5_scenario(
        packets=args.packets, seed=args.seed, kernel=args.kernel
    )
    # Export before printing: a closed stdout pipe (`report | head`) must
    # not cost the caller their --jsonl / --prom files.
    exported = []
    if args.jsonl:
        count = export_jsonl(result.hub, args.jsonl)
        exported.append(f"wrote {count} events to {args.jsonl}")
    if args.prom:
        Path(args.prom).write_text(prometheus_text(result.hub.registry))
        exported.append(f"wrote {args.prom}")
    print(render_report(result.hub), end="")
    for line in exported:
        print(line)
    return 0


#: ``repro-dpi check --inject`` faults: name -> (description, mutator).
#: Each mutator breaks the built figure-5 scenario in one specific way so
#: the validators (and the e2e tests) can observe a realistic failure.
def _inject_ghost_chain(result) -> None:
    """A chain whose middlebox type has no registered instance (CHAIN001)."""
    from repro.net.steering import PolicyChain

    result.tsa.chains["ghost"] = PolicyChain(
        "ghost", ("ghost-type",), chain_id=900
    )


def _inject_overlap_chain(result) -> None:
    """A chain whose tag block collides with chain1's (CHAIN002)."""
    from repro.net.steering import PolicyChain, TrafficAssignment

    result.tsa.chains["evil"] = PolicyChain("evil", ("ids2",), chain_id=101)
    result.tsa.assignments.append(
        TrafficAssignment("src2", "dst2", "evil")
    )


def _inject_orphan_rule(result) -> None:
    """A rule matching a VLAN tag no chain allocates (STEER001)."""
    from repro.net.openflow import FlowAction, FlowMatch

    result.tsa.controller.install(
        "s1", FlowMatch(in_port=1, vlan_vid=999),
        [FlowAction.output(2)], priority=200,
    )


def _inject_duplicate_rule(result) -> None:
    """The same (match, priority) installed twice on one switch (FLOW002)."""
    from repro.net.openflow import FlowAction, FlowMatch

    for _ in range(2):
        result.tsa.controller.install(
            "s2", FlowMatch(in_port=7, vlan_vid=131),
            [FlowAction.output(8)], priority=200,
        )


def _inject_dangling_assignment(result) -> None:
    """A traffic assignment naming a host outside the topology (CHAIN003)."""
    from repro.net.steering import TrafficAssignment

    result.tsa.assignments.append(
        TrafficAssignment("no-such-host", "dst1", "chain1")
    )


CHECK_FAULTS = {
    "ghost-chain": _inject_ghost_chain,
    "overlap-chain": _inject_overlap_chain,
    "orphan-rule": _inject_orphan_rule,
    "duplicate-rule": _inject_duplicate_rule,
    "dangling-assignment": _inject_dangling_assignment,
}


def _cmd_check(args) -> int:
    from repro.telemetry.scenario import run_figure5_scenario
    from repro.validation import (
        errors_in,
        format_issues,
        render_issues_json,
        validate_scenario,
    )

    # packets=0 builds and realizes the whole system without traffic —
    # validation is purely static, so no packet ever needs to flow.
    result = run_figure5_scenario(packets=0, telemetry=False)
    for fault in args.inject or []:
        CHECK_FAULTS[fault](result)
    issues = validate_scenario(
        topology=result.topology,
        tsa=result.tsa,
        controller=result.dpi_controller,
    )
    if args.load_spec:
        try:
            _, spec_issues = _read_load_spec(args.load_spec)
        except (OSError, ValueError) as error:
            print(
                f"check: cannot load spec {args.load_spec}: {error}",
                file=sys.stderr,
            )
            return 2
        issues = issues + spec_issues
    if args.format == "json":
        sys.stdout.write(render_issues_json(issues))
    else:
        sys.stdout.write(format_issues(issues))
    return 1 if errors_in(issues) else 0


def _read_load_spec(path: str):
    """The load-spec JSON document at *path* and its LOAD0xx issues.

    ``check --load-spec`` and ``load --spec`` judge the same raw document
    with the same validator, so the two subcommands agree on every file.
    """
    import json

    from repro.load.profiles import RAMP_KINDS, profile_vocabulary
    from repro.validation import validate_load_spec

    with open(path) as handle:
        document = json.load(handle)
    issues = validate_load_spec(
        document, profile_names=profile_vocabulary(), ramp_kinds=RAMP_KINDS
    )
    return document, issues


def _cmd_load(args) -> int:
    import json

    from repro.load.driver import run_load_scenario
    from repro.load.profiles import LoadSpec, RampSchedule
    from repro.validation import ValidationError, errors_in, format_issues

    if args.spec:
        try:
            document, issues = _read_load_spec(args.spec)
            errors = [] if args.no_validate else errors_in(issues)
            if not errors:
                spec = LoadSpec.from_dict(document)
        except (OSError, ValueError, TypeError) as error:
            print(f"load: cannot load spec {args.spec}: {error}", file=sys.stderr)
            return 2
        if errors:
            print(format_issues(errors), file=sys.stderr)
            return 2
    else:
        spec = LoadSpec()
    overrides = {
        "profile_mix": args.profile,
        "flows": args.flows,
        "epochs": args.epochs,
        "epoch_seconds": args.epoch_seconds,
        "seed": args.seed,
        "slo_ms": args.slo_ms,
        "rate_mbps": args.rate_mbps,
        "initial_instances": args.instances,
        "max_packets_per_epoch": args.max_packets,
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.ramp is not None:
        overrides["ramp"] = RampSchedule(kind=args.ramp)
    spec = spec.with_overrides(**overrides)

    plan = None
    if args.plan:
        from repro.faults import FaultPlan

        try:
            plan = FaultPlan.load(args.plan)
        except (OSError, ValueError) as error:
            print(f"load: cannot load plan {args.plan}: {error}", file=sys.stderr)
            return 2

    try:
        result = run_load_scenario(
            spec,
            autoscale=args.autoscale,
            policy=args.policy,
            max_instances=args.max_instances,
            plan=plan,
            instance_kwargs={"kernel": args.kernel},
            validate=not args.no_validate,
        )
    except ValidationError as error:
        print(format_issues(error.issues), file=sys.stderr)
        return 2

    summary = result.summary()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"load scenario: {args.scenario}  profile: {spec.profile_mix}  "
        f"flows: {spec.flows}  epochs: {spec.epochs}  "
        f"autoscale: {'on' if args.autoscale else 'off'}"
    )
    print(
        f"{'epoch':>5} {'flows':>8} {'packets':>8} {'p99 ms':>9} "
        f"{'viol':>6} {'inst':>5}  actions"
    )
    for report in result.epochs:
        actions = ", ".join(report.actions)
        print(
            f"{report.epoch:>5} {report.concurrent_flows:>8} "
            f"{report.offered_packets:>8} "
            f"{report.p99_latency_seconds * 1e3:>9.2f} "
            f"{report.slo_violations:>6} {report.alive_instances:>5}  {actions}"
        )
    totals = summary["totals"]
    print(
        f"totals: {totals['packets']} packets, {totals['matches']} matches, "
        f"{totals['slo_violations']} SLO violations, "
        f"{totals['suppressed']} suppressed"
    )
    print(
        f"peak flows within SLO: {summary['peak_flows_within_slo']}  "
        f"throughput: {summary['throughput_mbps']} Mbps  "
        f"worst epoch p99: {summary['overall_p99_ms']} ms"
    )
    print(f"digest: {result.digest}")
    return 0


def _cmd_bench_e2e(args) -> int:
    from repro.bench.e2e import (
        format_e2e_results,
        run_e2e_benchmark,
        validate_e2e_schema,
        write_results,
    )

    flow_steps = tuple(int(step) for step in args.flow_steps.split(","))
    results = run_e2e_benchmark(
        flow_steps,
        epochs=args.epochs,
        seed=args.seed,
        profile=args.profile,
        slo_ms=args.slo_ms,
        rate_mbps=args.rate_mbps,
        max_instances=args.max_instances,
    )
    problems = validate_e2e_schema(results)
    if problems:
        for problem in problems:
            print(f"bench-e2e: schema: {problem}", file=sys.stderr)
        return 1
    print(format_e2e_results(results))
    if args.out:
        write_results(results, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_anomaly(args) -> int:
    import json

    from repro.anomaly import AnomalyClassifier, verdict_digest
    from repro.load.driver import LoadDriver
    from repro.load.profiles import LoadSpec

    base = {"flows": args.flows, "epochs": args.epochs, "seed": args.seed}
    calibration = LoadDriver(
        LoadSpec(profile_mix=args.calibration_profile, **base), anomaly=True
    )
    calibration.run()
    classifier = AnomalyClassifier(
        threshold=args.threshold, min_packets=args.min_packets, seed=args.seed
    )
    fitted = classifier.fit(calibration.anomaly.features_map())

    driver = LoadDriver(
        LoadSpec(profile_mix=args.profile, **base),
        anomaly=True,
        anomaly_classifier=classifier,
        autoscale=args.autoscale,
        max_instances=args.max_instances,
    )
    driver.run()
    verdicts = driver.anomaly.verdicts()
    flagged = [verdict for verdict in verdicts if verdict.anomalous]
    ranked = sorted(flagged, key=lambda v: (-v.score, repr(v.flow_key)))
    payload = {
        "profile": args.profile,
        "calibration_profile": args.calibration_profile,
        "flows": args.flows,
        "epochs": args.epochs,
        "seed": args.seed,
        "threshold": args.threshold,
        "calibration_flows": fitted,
        "scored_flows": len(verdicts),
        "flagged_flows": len(flagged),
        "flagged": [verdict.to_dict() for verdict in ranked[: args.top]],
        "verdict_digest": verdict_digest(verdicts),
        "baseline_digest": classifier.baseline_digest(),
    }
    if driver.autoscaler is not None:
        payload["isolation"] = {
            "pinned_flows": {
                repr(flow): instance
                for flow, instance in sorted(
                    driver.autoscaler.pins.items(), key=lambda p: repr(p[0])
                )
            },
            "instances": len(driver.controller.instances),
        }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"anomaly: classified {payload['scored_flows']} flows of "
        f"{args.profile} (calibrated on {fitted} "
        f"{args.calibration_profile} flows, threshold {args.threshold})"
    )
    print(
        f"flagged {payload['flagged_flows']} flows; "
        f"verdict digest {payload['verdict_digest'][:16]}..."
    )
    for verdict in ranked[: args.top]:
        print(
            f"  flow {verdict.flow_key!r} chain {verdict.chain_id} "
            f"score {verdict.score:.2f} ({verdict.top_feature}, "
            f"{verdict.packets} packets)"
        )
    if "isolation" in payload:
        pins = payload["isolation"]["pinned_flows"]
        print(
            f"isolation: {len(pins)} flows pinned to dedicated instances, "
            f"{payload['isolation']['instances']} instances total"
        )
    return 0


def _cmd_bench_anomaly(args) -> int:
    from repro.bench.anomaly import (
        format_anomaly_results,
        run_anomaly_benchmark,
        validate_anomaly_schema,
        write_results,
    )

    results = run_anomaly_benchmark(
        flows=args.flows,
        epochs=args.epochs,
        seed=args.seed,
        threshold=args.threshold,
        min_packets=args.min_packets,
        mix=args.profile,
        calibration_profile=args.calibration_profile,
    )
    problems = validate_anomaly_schema(results)
    if problems:
        for problem in problems:
            print(f"bench-anomaly: schema: {problem}", file=sys.stderr)
        return 1
    print(format_anomaly_results(results))
    if args.out:
        write_results(results, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults import FaultPlan, HeartbeatConfig, run_chaos_scenario

    try:
        plan = FaultPlan.load(args.plan)
    except (OSError, ValueError) as error:
        print(f"chaos: cannot load plan {args.plan}: {error}", file=sys.stderr)
        return 2
    heartbeat = HeartbeatConfig(failover_budget=args.failover_budget)
    result = run_chaos_scenario(
        plan,
        scenario=args.scenario,
        packets=args.packets,
        heartbeat=heartbeat,
        allow_spare=not args.no_spare,
        kernel=args.kernel,
    )
    summary = result.summary()
    if args.format == "json":
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"scenario: {summary['scenario']}  plan: {args.plan}")
        print(
            f"packets: {summary['packets_sent']} sent, "
            f"{summary['packets_received']} received, "
            f"{summary['policy_drops']} dropped by policy, "
            f"{summary['packets_lost']} lost to faults"
        )
        for event in summary["faults"]:
            detail = f"  ({event['detail']})" if event["detail"] else ""
            print(
                f"  t={event['time']:<8.3f} {event['phase']:<8} "
                f"{event['kind']} -> {event['target']}{detail}"
            )
        for name, duration in summary["failover_times"].items():
            print(
                f"failover {name}: {duration:.3f}s "
                f"(budget {summary['failover_budget']:.3f}s)"
            )
        print(
            f"lost after recovery: {summary['lost_after_recovery']}  "
            f"unrecovered instances: "
            f"{len(summary['unrecovered_instances'])}"
        )
        print(f"digest: {summary['digest']}")
        print("result: " + ("OK" if result.ok else "FAILED"))
    return 0 if result.ok else 1


def _cmd_fuzz_diff(args) -> int:
    from repro.adversarial import (
        Corpus,
        generate_corpus,
        legs_by_name,
        run_differential,
    )

    if args.corpus:
        try:
            corpus = Corpus.load(args.corpus)
        except (OSError, ValueError, KeyError) as error:
            print(
                f"fuzz-diff: cannot load corpus {args.corpus}: {error}",
                file=sys.stderr,
            )
            return 2
    else:
        corpus = generate_corpus(args.seed, cases_per_kind=args.cases)
    try:
        legs = legs_by_name(args.legs) if args.legs else None
    except ValueError as error:
        print(f"fuzz-diff: {error}", file=sys.stderr)
        return 2
    progress = None
    if args.format == "text":
        progress = lambda message: print(f"  {message}")  # noqa: E731
    report = run_differential(corpus, legs=legs, progress=progress)
    payload = report.to_dict()
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        source = args.corpus or f"seed {args.seed}"
        print(
            f"corpus: {source}  cases: {report.cases}  "
            f"legs: {len(report.legs)}"
        )
        for divergence in report.divergences:
            print(
                f"DIVERGENCE {divergence.case}: {divergence.leg} vs "
                f"{divergence.baseline} on {', '.join(divergence.fields)}"
            )
        for leg, case, error in report.errors:
            print(f"ERROR {case} on {leg}: {error}")
        print("result: " + ("OK" if report.ok else "DIVERGED"))
    return 0 if report.ok else 1


def _cmd_demo(args) -> int:
    from repro.core.controller import DPIController
    from repro.core.messages import AddPatternsMessage, RegisterMiddleboxMessage
    from repro.net.steering import PolicyChain

    controller = DPIController()
    controller.handle_message(RegisterMiddleboxMessage(1, "ids"))
    controller.handle_message(RegisterMiddleboxMessage(2, "av"))
    controller.handle_message(
        AddPatternsMessage(1, [Pattern(0, b"attack-demo-sig")])
    )
    controller.handle_message(
        AddPatternsMessage(2, [Pattern(0, b"virus-demo-sig!")])
    )
    controller.policy_chains_changed(
        {"demo": PolicyChain("demo", ("ids", "av"), chain_id=100)}
    )
    instance = controller.instances.provision("demo-instance")
    samples = [
        b"a perfectly clean packet",
        b"carrying the attack-demo-sig here",
        b"and one with virus-demo-sig! too",
    ]
    for payload in samples:
        output = instance.inspect(payload, chain_id=100)
        verdict = "MATCHES" if output.has_matches else "clean"
        print(f"{verdict:7}  {payload!r}")
        for middlebox_id, matches in output.matches.items():
            for pattern_id, position in matches:
                name = {1: "ids", 2: "av"}[middlebox_id]
                print(f"         -> {name}: pattern {pattern_id} ends at {position}")
    print(f"telemetry: {instance.telemetry_snapshot()}")
    return 0


def _positive_int(text: str) -> int:
    """An argparse type for counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dpi",
        description="DPI-as-a-service reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate-patterns", help="write a synthetic pattern corpus"
    )
    generate.add_argument("--style", choices=("snort", "clamav"), default="snort")
    generate.add_argument("--count", type=_positive_int, default=1000)
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate_patterns)

    trace = commands.add_parser("generate-trace", help="write a traffic trace")
    trace.add_argument("--packets", type=_positive_int, default=200)
    trace.add_argument("--style", choices=("http", "campus"), default="http")
    trace.add_argument("--patterns", help="pattern file to inject from")
    trace.add_argument("--match-rate", type=float, default=0.08)
    trace.add_argument("--flows", type=int, default=None)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--out", required=True)
    trace.set_defaults(func=_cmd_generate_trace)

    scan = commands.add_parser("scan", help="scan a trace with an engine")
    scan.add_argument("--patterns", required=True)
    scan.add_argument("--trace", required=True)
    scan.add_argument("--engine", choices=("ac", "wm", "combined"), default="ac")
    scan.add_argument(
        "--layout",
        choices=("sparse", "full"),
        help="DFA layout for --engine ac (default sparse)",
    )
    scan.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default="flat",
        help="scan kernel for --engine combined",
    )
    scan.set_defaults(func=_cmd_scan)

    report = commands.add_parser(
        "report",
        help="run the figure-5 telemetry scenario and print the summary",
    )
    report.add_argument("--packets", type=_positive_int, default=40)
    report.add_argument("--seed", type=int, default=7)
    report.add_argument(
        "--kernel", choices=KERNEL_NAMES, default="flat"
    )
    report.add_argument("--jsonl", help="also export the JSONL event log here")
    report.add_argument(
        "--prom", help="also export a Prometheus text-format dump here"
    )
    report.set_defaults(func=_cmd_report)

    check = commands.add_parser(
        "check",
        help="statically validate a built scenario without sending traffic",
    )
    check.add_argument("scenario", choices=("figure5",))
    check.add_argument(
        "--inject",
        action="append",
        choices=sorted(CHECK_FAULTS),
        help="break the scenario in a known way first (repeatable)",
    )
    check.add_argument(
        "--load-spec",
        help="also validate a load-profile JSON file (LOAD0xx codes)",
    )
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(func=_cmd_check)

    load = commands.add_parser(
        "load",
        help="drive a deterministic load scenario, optionally autoscaled",
    )
    load.add_argument("scenario", choices=LOAD_SCENARIOS)
    load.add_argument("--spec", help="LoadSpec JSON file (flags override it)")
    load.add_argument(
        "--profile", help="traffic mix or profile name (default mixed)"
    )
    load.add_argument("--flows", type=int, help="peak concurrent flows")
    load.add_argument("--epochs", type=int, help="epoch count")
    load.add_argument("--epoch-seconds", type=float, help="epoch length")
    load.add_argument("--seed", type=int, help="load generator seed")
    load.add_argument("--slo-ms", type=float, help="p99 latency SLO (ms)")
    load.add_argument(
        "--rate-mbps", type=float, help="modeled per-instance scan rate"
    )
    load.add_argument(
        "--instances", type=int, help="initial DPI instance count"
    )
    load.add_argument(
        "--max-packets", type=int, help="per-epoch packet cap (harness bound)"
    )
    load.add_argument(
        "--ramp", choices=LOAD_RAMP_KINDS, help="ramp schedule kind"
    )
    load.add_argument(
        "--autoscale",
        action="store_true",
        help="close the loop: elastic instance pool against the SLO",
    )
    load.add_argument(
        "--policy",
        choices=LOAD_POLICY_NAMES,
        default="isolation",
        help="autoscaling policy stack (isolation includes hysteresis)",
    )
    load.add_argument(
        "--max-instances", type=int, default=8, help="autoscaler pool ceiling"
    )
    load.add_argument(
        "--plan", help="fault plan JSON to inject during the run"
    )
    load.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default="flat",
    )
    load.add_argument(
        "--no-validate",
        action="store_true",
        help="skip LOAD0xx spec validation (not recommended)",
    )
    load.add_argument("--out", help="also write the JSON summary here")
    load.add_argument("--format", choices=("text", "json"), default="text")
    load.set_defaults(func=_cmd_load)

    bench_e2e = commands.add_parser(
        "bench-e2e",
        help="capacity curves: flows vs p99/throughput, static vs autoscaled",
    )
    bench_e2e.add_argument(
        "--flow-steps",
        default="200,600,1200,2000",
        help="comma-separated concurrent-flow steps",
    )
    bench_e2e.add_argument("--epochs", type=_positive_int, default=18)
    bench_e2e.add_argument("--seed", type=int, default=7)
    bench_e2e.add_argument("--profile", default="mixed")
    bench_e2e.add_argument("--slo-ms", type=float, default=50.0)
    bench_e2e.add_argument("--rate-mbps", type=float, default=40.0)
    bench_e2e.add_argument("--max-instances", type=int, default=6)
    bench_e2e.add_argument("--out", help="write BENCH_e2e.json here")
    bench_e2e.set_defaults(func=_cmd_bench_e2e)

    anomaly = commands.add_parser(
        "anomaly",
        help="flow-feature anomaly detection over a seeded load run",
    )
    anomaly.add_argument(
        "--profile", default="web-flood", help="profile or mix to classify"
    )
    anomaly.add_argument(
        "--calibration-profile",
        default="benign-http",
        help="benign profile or mix the baseline is fitted on",
    )
    anomaly.add_argument("--flows", type=_positive_int, default=200)
    anomaly.add_argument("--epochs", type=_positive_int, default=6)
    anomaly.add_argument("--seed", type=int, default=7)
    anomaly.add_argument("--threshold", type=float, default=5.0)
    anomaly.add_argument("--min-packets", type=int, default=2)
    anomaly.add_argument(
        "--autoscale",
        action="store_true",
        help="steer flagged flows to dedicated instances (isolation pins)",
    )
    anomaly.add_argument(
        "--max-instances", type=int, default=8, help="autoscaler pool ceiling"
    )
    anomaly.add_argument(
        "--top", type=int, default=5, help="flagged flows to show/emit"
    )
    anomaly.add_argument("--out", help="also write the JSON summary here")
    anomaly.add_argument("--format", choices=("text", "json"), default="text")
    anomaly.set_defaults(func=_cmd_anomaly)

    bench_anomaly = commands.add_parser(
        "bench-anomaly",
        help="anomaly detection quality + verdict reproducibility report",
    )
    bench_anomaly.add_argument("--flows", type=_positive_int, default=400)
    bench_anomaly.add_argument("--epochs", type=_positive_int, default=8)
    bench_anomaly.add_argument("--seed", type=int, default=7)
    bench_anomaly.add_argument("--threshold", type=float, default=5.0)
    bench_anomaly.add_argument("--min-packets", type=int, default=2)
    bench_anomaly.add_argument("--profile", default="web-flood")
    bench_anomaly.add_argument(
        "--calibration-profile", default="benign-http"
    )
    bench_anomaly.add_argument("--out", help="write BENCH_anomaly.json here")
    bench_anomaly.set_defaults(func=_cmd_bench_anomaly)

    chaos = commands.add_parser(
        "chaos",
        help="run a fault plan against a scenario and grade the recovery",
    )
    chaos.add_argument("scenario", choices=("figure5",))
    chaos.add_argument(
        "--plan", required=True, help="fault plan JSON file to execute"
    )
    chaos.add_argument("--packets", type=_positive_int, default=60)
    chaos.add_argument(
        "--kernel", choices=KERNEL_NAMES, default="flat"
    )
    chaos.add_argument(
        "--failover-budget",
        type=float,
        default=1.0,
        help="max seconds from failure detection to chains recovered",
    )
    chaos.add_argument(
        "--no-spare",
        action="store_true",
        help="run without a standby host (forces graceful degradation)",
    )
    chaos.add_argument("--format", choices=("text", "json"), default="text")
    chaos.set_defaults(func=_cmd_chaos)

    fuzz_diff = commands.add_parser(
        "fuzz-diff",
        help="replay an adversarial corpus through every kernel leg and "
        "report divergences",
    )
    fuzz_diff.add_argument(
        "--seed", type=int, default=1234, help="corpus generator seed"
    )
    fuzz_diff.add_argument(
        "--cases",
        type=_positive_int,
        default=8,
        help="generated cases per adversarial kind",
    )
    fuzz_diff.add_argument(
        "--corpus",
        help="replay a corpus JSON file instead of generating one",
    )
    fuzz_diff.add_argument(
        "--legs",
        nargs="+",
        metavar="LEG",
        help="restrict to named legs (default: all three kernel legs)",
    )
    fuzz_diff.add_argument(
        "--out", help="also write the full JSON report to this path"
    )
    fuzz_diff.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    fuzz_diff.set_defaults(func=_cmd_fuzz_diff)

    demo = commands.add_parser("demo", help="run a tiny end-to-end demo")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; not our error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
