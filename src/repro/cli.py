"""Command-line interface: ``netrs`` (or ``python -m repro``).

Subcommands:

* ``run``      -- one experiment, printing the latency summary,
* ``figure``   -- reproduce one of the paper's figures (fig4..fig7),
* ``compare``  -- all four schemes on one configuration with reductions,
* ``topology`` -- fat-tree facts for a given arity,
* ``plan``     -- solve and display an RSNode placement for a config.
"""

from __future__ import annotations

import argparse
import sys
import typing
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.experiments.config import SCHEMES, ExperimentConfig
from repro.experiments.figures import FIGURES, base_config, run_figure
from repro.experiments.metrics import METRICS
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bootstrap_traffic, build_scenario
from repro.experiments.sweep import run_sweep
from repro.experiments.tables import format_figure, format_reductions
from repro.network.fattree import fat_tree_dimensions


def _add_exec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (default 1 = serial; output is identical)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs already completed in the run ledger",
    )
    parser.add_argument(
        "--run-dir",
        default="",
        help="directory for the JSONL run ledger "
        "(default: derived under .netrs-runs/ when --resume is given)",
    )


def _execution_from_args(args: argparse.Namespace) -> "ExecutionPolicy":
    from repro.exec import ExecutionPolicy, ProgressReporter

    progress = None
    if args.jobs > 1 or args.resume:
        progress = ProgressReporter(workers=max(1, args.jobs))
    return ExecutionPolicy(
        workers=max(1, args.jobs),
        run_dir=args.run_dir or None,
        resume=args.resume,
        progress=progress,
    )


def _add_common_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        choices=("small", "paper"),
        default="small",
        help="parameter profile (default: small scale-down)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--requests",
        type=int,
        default=0,
        help="override total request count (0 = profile default)",
    )
    parser.add_argument("--clients", type=int, default=0, help="override client count")
    parser.add_argument("--servers", type=int, default=0, help="override server count")
    parser.add_argument(
        "--utilization", type=float, default=0.0, help="override nominal utilization"
    )
    parser.add_argument(
        "--skew", type=float, default=0.0, help="demand skew fraction (0 = none)"
    )
    parser.add_argument(
        "--faults",
        default="",
        help="fault schedule spec, e.g. "
        "'server-down@0.05:server#0;server-up@0.1:server#0' "
        "(see docs/FAULTS.md)",
    )
    parser.add_argument(
        "--write-fraction",
        type=float,
        default=0.0,
        help="share of requests issued as quorum writes "
        "(see docs/CONSISTENCY.md)",
    )
    parser.add_argument(
        "--write-quorum",
        type=int,
        default=0,
        help="acks a write waits for before completing "
        "(0 = all replicas; see docs/CONSISTENCY.md)",
    )
    parser.add_argument(
        "--read-quorum",
        type=int,
        default=0,
        help="replicas consulted per read: data from one plus version "
        "digests from R-1 (0 = single replica; see docs/CONSISTENCY.md)",
    )
    parser.add_argument(
        "--churn-schedule",
        default="",
        help="membership churn spec, e.g. "
        "'node-leave@0.03:server#0;node-join@0.06:server#0' "
        "(see docs/CONSISTENCY.md)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=0.0,
        help="client request timeout in seconds (0 = never time out)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=-1,
        help="retransmissions per timed-out request (-1 = config default)",
    )
    parser.add_argument(
        "--fidelity",
        choices=("packet", "flow"),
        default="packet",
        help="simulation tier: 'packet' (hop-by-hop) or 'flow' (the fastest "
        "engine with the same result: a flow engine where it models the "
        "config, else the packet engine; see docs/MESOSCALE.md)",
    )
    parser.add_argument(
        "--vector-batch",
        type=int,
        default=0,
        help="flow tier only: SoA request-block length for the vectorized "
        "fast path, which runs clirs/clirs-r95 with algorithm c3 where the "
        "flow engine models the config; other configs run as without it, "
        "with identical results (0 = off; see docs/MESOSCALE.md)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="flow tier only: split the run into N independent shards "
        "executed as repro.exec jobs, on configs the flow engine models "
        "(see docs/MESOSCALE.md)",
    )


def _overrides_from_args(args: argparse.Namespace) -> Dict[str, Any]:
    """The config fields the common run options set; unset options are absent."""
    overrides: Dict[str, Any] = {}
    if args.requests:
        overrides["total_requests"] = args.requests
    if args.clients:
        overrides["n_clients"] = args.clients
    if args.servers:
        overrides["n_servers"] = args.servers
    if args.utilization:
        overrides["utilization"] = args.utilization
    if args.skew:
        overrides["demand_skew"] = args.skew
    if getattr(args, "faults", ""):
        overrides["fault_schedule"] = args.faults
    if getattr(args, "write_fraction", 0.0):
        overrides["write_fraction"] = args.write_fraction
    if getattr(args, "write_quorum", 0):
        overrides["write_quorum"] = args.write_quorum
    if getattr(args, "read_quorum", 0):
        overrides["read_quorum"] = args.read_quorum
    if getattr(args, "churn_schedule", ""):
        overrides["churn_schedule"] = args.churn_schedule
    if getattr(args, "request_timeout", 0.0):
        overrides["request_timeout"] = args.request_timeout
    if getattr(args, "max_retries", -1) >= 0:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "fidelity", "packet") != "packet":
        overrides["fidelity"] = args.fidelity
    if getattr(args, "vector_batch", 0):
        overrides["vector_batch"] = args.vector_batch
    if getattr(args, "shards", 1) > 1:
        overrides["shards"] = args.shards
    return overrides


def _config_from_args(args: argparse.Namespace, scheme: str) -> ExperimentConfig:
    return base_config(
        args.profile, seed=args.seed, scheme=scheme, **_overrides_from_args(args)
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, args.scheme)
    result = run_experiment(config)
    print(result.describe())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args, "clirs")
    sweep = run_sweep(
        config,
        parameter="seed",
        values=[config.seed],
        schemes=list(args.schemes),
        repetitions=args.repetitions,
        execution=_execution_from_args(args),
    )
    print(format_figure(sweep, title="scheme comparison"))
    if "clirs" in args.schemes and "netrs-ilp" in args.schemes:
        print()
        print(format_reductions(sweep))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.metrics import METRICS
    from repro.experiments.tables import format_bars, format_markdown_report

    sweep = run_figure(
        args.figure,
        profile=args.profile,
        seed=args.seed,
        repetitions=args.repetitions,
        execution=_execution_from_args(args),
        **_overrides_from_args(args),
    )
    title = FIGURES[args.figure].title
    if args.markdown:
        print(format_markdown_report(sweep, title=title))
        return 0
    print(format_figure(sweep, title=title))
    print()
    print(format_reductions(sweep))
    if args.bars:
        for metric in METRICS:
            print()
            print(format_bars(sweep, metric))
    return 0


def _cmd_factors(args: argparse.Namespace) -> int:
    from repro.analysis import attach_probes, jain_fairness
    from repro.experiments.runner import run_experiment as _run

    for scheme in args.schemes:
        config = _config_from_args(args, scheme)
        scenario = build_scenario(config)
        probes = attach_probes(scenario)
        result = _run(config, scenario=scenario)
        staleness = probes.staleness.summary()
        herd = probes.queues.summary()
        print(f"=== {scheme} ===")
        print(f"  mean latency: {result.summary()['mean']:.3f} ms")
        print(
            f"  feedback age at selection: mean "
            f"{staleness['mean_age']*1e3:.2f} ms "
            f"({staleness['cold_selections']:.0f} cold selections)"
        )
        print(
            f"  queue imbalance: CV {herd.mean_cv:.3f}, oscillation in "
            f"{herd.oscillation_fraction*100:.1f}% of samples"
        )
        print(
            f"  load fairness (Jain): "
            f"{jain_fairness(probes.trace.per_server_counts()):.4f}"
        )
        means = probes.trace.decomposition_means()
        print(
            "  latency breakdown (ms): "
            f"selection {means['selection']*1e3:.3f}, "
            f"queue {means['server_queue']*1e3:.3f}, "
            f"service {means['server_service']*1e3:.3f}, "
            f"network {means['network']*1e3:.3f}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis import attach_probes
    from repro.experiments.runner import run_experiment as _run

    config = _config_from_args(args, args.scheme)
    scenario = build_scenario(config)
    probes = attach_probes(scenario, staleness=False, queues=False)
    _run(config, scenario=scenario)
    probes.trace.write_csv(args.output)
    print(f"wrote {len(probes.trace)} request records to {args.output}")
    return 0


def _sweep_value(raw: str, kinds: tuple) -> object:
    """One swept value as its field's declared type reads it.

    A number where the field takes one (``Optional[float]`` too); a field
    that also takes text (``group_granularity``: ``'rack'``, ``'host'`` or
    an int) keeps what is not a number as text.
    """
    for kind in (int, float):
        if kind in kinds:
            try:
                return kind(raw)
            except ValueError:
                if str not in kinds:
                    raise
    return raw


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_bars

    base = _config_from_args(args, "clirs")
    hint = typing.get_type_hints(ExperimentConfig).get(args.parameter, float)
    kinds = typing.get_args(hint) or (hint,)
    values = [_sweep_value(raw, kinds) for raw in args.values]
    sweep = run_sweep(
        base,
        parameter=args.parameter,
        values=values,
        schemes=list(args.schemes),
        repetitions=args.repetitions,
        execution=_execution_from_args(args),
    )
    print(format_figure(sweep, title=f"sweep of {args.parameter}"))
    if args.bars:
        print()
        print(format_bars(sweep, "mean"))
    if "clirs" in args.schemes and "netrs-ilp" in args.schemes:
        print()
        print(format_reductions(sweep))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.experiments.claims import ClaimVerifier, format_claims

    base = _config_from_args(args, "clirs")
    verifier = ClaimVerifier(base_config=base)
    checks = verifier.all_claims()
    print(format_claims(checks))
    return 0 if all(c.passed for c in checks) else 1


def _cmd_topology(args: argparse.Namespace) -> int:
    dims = fat_tree_dimensions(args.k)
    print(f"{args.k}-ary fat-tree:")
    for key, value in dims.items():
        print(f"  {key}: {value}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    scenario = build_scenario(_config_from_args(args, args.scheme))
    plan = scenario.plan
    if plan is None:
        print("scheme does not use NetRS; no plan to show")
        return 1
    from repro.core.placement.report import plan_report

    assert scenario.controller is not None
    problem = scenario.controller.build_problem(bootstrap_traffic(scenario))
    print(plan_report(problem, plan))
    return 0


def _cmd_validate_fidelity(args: argparse.Namespace) -> int:
    from repro.mesoscale.validate import main as fidelity_main

    return fidelity_main(list(args.fidelity_args))


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="netrs",
        description="NetRS reproduction: in-network replica selection",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("scheme", choices=SCHEMES)
    _add_common_run_options(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser("compare", help="compare schemes")
    compare_parser.add_argument(
        "--schemes",
        nargs="+",
        default=["clirs", "clirs-r95", "netrs-tor", "netrs-ilp"],
        choices=SCHEMES,
    )
    compare_parser.add_argument("--repetitions", type=int, default=1)
    _add_common_run_options(compare_parser)
    _add_exec_options(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    figure_parser = sub.add_parser("figure", help="reproduce a paper figure")
    figure_parser.add_argument("figure", choices=sorted(FIGURES))
    figure_parser.add_argument("--repetitions", type=int, default=1)
    figure_parser.add_argument(
        "--bars", action="store_true", help="also render ASCII bar groups"
    )
    figure_parser.add_argument(
        "--markdown", action="store_true", help="emit a Markdown report instead"
    )
    _add_common_run_options(figure_parser)
    _add_exec_options(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    factors_parser = sub.add_parser(
        "factors", help="measure staleness/herding root causes"
    )
    factors_parser.add_argument(
        "--schemes",
        nargs="+",
        default=["clirs", "netrs-ilp"],
        choices=SCHEMES,
    )
    _add_common_run_options(factors_parser)
    factors_parser.set_defaults(func=_cmd_factors)

    trace_parser = sub.add_parser("trace", help="export a per-request CSV trace")
    trace_parser.add_argument("scheme", choices=SCHEMES)
    trace_parser.add_argument("--output", default="trace.csv")
    _add_common_run_options(trace_parser)
    trace_parser.set_defaults(func=_cmd_trace)

    sweep_parser = sub.add_parser(
        "sweep", help="sweep any ExperimentConfig field across schemes"
    )
    sweep_parser.add_argument("parameter", help="config field, e.g. utilization")
    sweep_parser.add_argument("values", nargs="+", help="values to sweep")
    sweep_parser.add_argument(
        "--schemes", nargs="+", default=["clirs", "netrs-ilp"], choices=SCHEMES
    )
    sweep_parser.add_argument("--repetitions", type=int, default=1)
    sweep_parser.add_argument("--bars", action="store_true")
    _add_common_run_options(sweep_parser)
    _add_exec_options(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    verify_parser = sub.add_parser(
        "verify", help="verify the paper's qualitative claims end to end"
    )
    _add_common_run_options(verify_parser)
    verify_parser.set_defaults(func=_cmd_verify)

    topo_parser = sub.add_parser("topology", help="fat-tree dimensions")
    topo_parser.add_argument("--k", type=int, default=16)
    topo_parser.set_defaults(func=_cmd_topology)

    plan_parser = sub.add_parser("plan", help="show an RSNode placement")
    plan_parser.add_argument(
        "--scheme",
        default="netrs-ilp",
        choices=[s for s in SCHEMES if s.startswith("netrs")],
    )
    _add_common_run_options(plan_parser)
    plan_parser.set_defaults(func=_cmd_plan)

    fidelity_parser = sub.add_parser(
        "validate-fidelity",
        help="gate the flow tier on bit-identity with the packet engine "
        "(docs/MESOSCALE.md)",
        add_help=False,
    )
    fidelity_parser.add_argument("fidelity_args", nargs=argparse.REMAINDER)
    fidelity_parser.set_defaults(func=_cmd_validate_fidelity)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    # ``validate-fidelity`` owns its whole argument tail: argparse.REMAINDER
    # will not take a leading option like ``--scenario``, so dispatch before
    # parsing.
    if arguments and arguments[0] == "validate-fidelity":
        from repro.mesoscale.validate import main as fidelity_main

        return fidelity_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
