"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``size``      size a circuit (suite name or .bench file) to a delay target
``stats``     structural statistics of a circuit (``--json`` for tooling)
``suite``     list the ISCAS85-equivalent benchmark suite (``--json``)
``campaign``  run/resume/inspect a parallel sizing campaign (run log +
              content-addressed result cache; see ``campaign --help``)
``serve``     run the JSON-over-HTTP sizing service (``repro.service``)
``queue``     inspect/requeue a service queue's dead-letter jobs
``trace``     render a trace.jsonl span tree as a per-job waterfall
``table1``    regenerate the paper's Table 1 (alias of experiments.table1)
``figure7``   regenerate the paper's Figure 7 (alias of experiments.figure7)

Examples
--------

    python -m repro size c432eq --spec 0.4
    python -m repro size my.bench --spec 0.5 --mode transistor
    python -m repro stats c6288eq --json
    python -m repro table1 --tier smoke
    python -m repro campaign run --circuits c432eq,c499eq --specs 0.5,0.6 \\
        --jobs 4 --run-dir runs/demo
    python -m repro campaign resume runs/demo --jobs 4
    python -m repro campaign status runs/demo
    python -m repro serve --port 8765 --jobs 4 --run-dir runs/service
    python -m repro queue inspect fleet-q.db
    python -m repro queue requeue fleet-q.db --all-failed
    python -m repro trace runs/service/trace.jsonl

Exit codes: 0 success; 1 infeasible target or failed campaign jobs;
2 usage errors (unknown circuit or flow backend, bad delay target,
malformed run dir).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.circuit import circuit_stats, map_to_primitives
from repro.circuit.mapping import is_primitive_circuit
from repro.dag import build_sizing_dag
from repro.errors import FlowError, ReproError
from repro.flow.duality import BACKEND_CHOICES, check_backend, stats_scope
from repro.generators.iscas import SUITE
from repro.runner.spec import JOB_KINDS
from repro.sizing import MinfloOptions, minflotransit, tilos_size
from repro.tech import default_technology
from repro.timing import analyze


def _resolve_circuit(token: str):
    from repro.runner.spec import resolve_circuit

    return resolve_circuit(token)


def _parse_float_list(text: str, flag: str) -> list[float]:
    """Comma-separated floats, with a usage error (exit 2) on junk."""
    from repro.errors import RunnerError

    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise RunnerError(
            f"{flag} expects comma-separated numbers, got {text!r}"
        ) from None


def _flow_backend(name: str) -> str:
    """``--flow-backend`` type: unknown names are usage errors at parse
    time, before any circuit is built or solved."""
    try:
        return check_backend(name)
    except FlowError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_size(args: argparse.Namespace) -> int:
    if args.spec <= 0:
        print(f"error: --spec must be a positive fraction of Dmin, "
              f"got {args.spec}", file=sys.stderr)
        return 2
    circuit = _resolve_circuit(args.circuit)
    if args.mode == "transistor" and not is_primitive_circuit(circuit):
        circuit = map_to_primitives(circuit, suffix="")
    tech = default_technology()
    dag = build_sizing_dag(
        circuit, tech, mode=args.mode, size_wires=args.wires
    )
    d_min = analyze(dag, dag.min_sizes()).critical_path_delay
    target = args.spec * d_min
    print(f"{circuit.name}: {circuit.n_gates} gates, {dag.n} variables, "
          f"Dmin = {d_min:.0f} ps, target = {target:.0f} ps")

    # Scope the flow-solver counters to this run: the module totals are
    # cumulative per process, so printing them directly would mix in any
    # earlier solves (other commands, other library calls).
    with stats_scope() as flow_totals:
        seed = tilos_size(dag, target)
        if not seed.feasible:
            print(f"TILOS stalled at {seed.critical_path_delay:.0f} ps — "
                  f"spec {args.spec} is below this circuit's delay floor")
            return 1
        print(f"TILOS: area {seed.area:.1f} "
              f"({seed.area / dag.area(dag.min_sizes()):.2f}x min), "
              f"{seed.runtime_seconds:.2f}s")
        result = minflotransit(
            dag,
            target,
            MinfloOptions(flow_backend=args.backend),
            x0=seed.x,
        )
    print(result.summary())
    print(f"area saved over TILOS: "
          f"{100 * (1 - result.area / seed.area):.2f}%")
    if args.phase_stats:
        _print_phase_stats(seed, result)
    if args.flow_stats:
        _print_iteration_stats(seed, result)
        _print_flow_stats(flow_totals)
    if args.out:
        with open(args.out, "w") as handle:
            for vertex in dag.vertices:
                handle.write(
                    f"{vertex.label}\t{result.x[vertex.index]:.4f}\n"
                )
        print(f"sizes written to {args.out}")
    return 0


def _print_flow_stats(totals: dict) -> None:
    """Per-backend flow-solver totals of one run (a stats_scope dict)."""
    if not totals:
        print("no flow solves recorded")
        return
    rows = [
        [
            name,
            str(stats.solves),
            str(stats.n_nodes),
            str(stats.n_arcs),
            f"{stats.wall_time_s:.3f}",
        ]
        for name, stats in sorted(totals.items())
    ]
    print(format_table(
        ["backend", "solves", "nodes", "arcs", "wall s"],
        rows,
        title="flow solver statistics",
    ))


def _print_phase_stats(seed, result) -> None:
    """Per-phase wall-time breakdown of one sizing run.

    Attributes a regression to the phase that caused it: the TILOS
    seed (with its scan/refresh split), incremental timing, delay
    balancing, the D-phase flow solve and the W-phase SMP relaxation.
    """
    tstats = seed.timing_stats
    seed_note = (
        f"scan {tstats.get('scan_seconds', 0.0):.3f}s, "
        f"refresh {tstats.get('refresh_seconds', 0.0):.3f}s"
    )
    phases = result.phase_seconds
    rows = [
        ["TILOS seed", f"{seed.runtime_seconds:.3f}", seed_note],
        ["timing", f"{phases.get('timing', 0.0):.3f}",
         "incremental AT/RT maintenance"],
        ["balance", f"{phases.get('balance', 0.0):.3f}",
         "FSDU delay balancing"],
        ["D-phase flow", f"{phases.get('d_phase', 0.0):.3f}",
         "min-cost-flow budget redistribution"],
        ["W-phase", f"{phases.get('w_phase', 0.0):.3f}",
         f"{result.w_sweeps_total} SMP sweeps"],
    ]
    print(format_table(
        ["phase", "wall s", "notes"], rows,
        title="per-phase wall time",
    ))


def _print_iteration_stats(seed, result) -> None:
    """Incremental-timing telemetry of one sizing run."""
    tstats = seed.timing_stats
    if tstats:
        print(
            f"TILOS timing (incremental): re-propagated "
            f"{tstats['repropagated_vertices']} vertices over "
            f"{tstats['updates']} bumps = "
            f"{100 * tstats['cone_fraction']:.1f}% of a full pass each"
        )
    if result.iterations:
        mean_cone = sum(
            rec.cone_fraction for rec in result.iterations
        ) / len(result.iterations)
        print(
            f"W/D iterations: {len(result.iterations)}, mean timing cone "
            f"{100 * mean_cone:.1f}% of a full pass"
        )


def _cmd_stats(args: argparse.Namespace) -> int:
    circuit = _resolve_circuit(args.circuit)
    stats = circuit_stats(circuit)
    if args.json:
        print(json.dumps(asdict(stats), indent=2))
        return 0
    print(stats.summary())
    rows = sorted(stats.cells.items(), key=lambda kv: -kv[1])
    print(format_table(
        ["cell", "count"], [[c, str(n)] for c, n in rows]
    ))
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(
            [
                {
                    "name": spec.name,
                    "paper_gates": spec.paper_gates,
                    "delay_spec": spec.delay_spec,
                    "paper_area_saving_percent":
                        spec.paper_area_saving_percent,
                    "tier": spec.tier,
                }
                for spec in SUITE
            ],
            indent=2,
        ))
        return 0
    rows = [
        [
            spec.name,
            str(spec.paper_gates),
            f"{spec.delay_spec:.2f}",
            f"{spec.paper_area_saving_percent:.1f}%",
            spec.tier,
        ]
        for spec in SUITE
    ]
    print(format_table(
        ["circuit", "paper gates", "spec·Dmin", "paper saving", "tier"],
        rows,
        title="ISCAS85-equivalent suite (Table 1 rows)",
    ))
    return 0


def _campaign_cache(args: argparse.Namespace):
    from repro.runner import DEFAULT_CACHE_DIR, ResultCache

    if args.no_cache:
        return None
    backend = getattr(args, "cache_backend", None)
    if backend:
        return ResultCache(backend)
    return ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)


def _warm_corpus_spec(args: argparse.Namespace) -> str | None:
    """Resolve ``--warm-corpus`` into a backend spec string.

    The bare flag reuses the command's own cache location (the common
    case: the corpus lives next to the results it seeds from); an
    explicit ``SPEC`` names any other backend and still works with
    ``--no-cache`` (read-only probing — with no result cache the run's
    own trajectories are not recorded).  Returns None when warm starts
    are off.  Raises ``SystemExit(2)`` for ``--no-cache`` + the bare
    flag — there is no cache location to reuse.
    """
    flag = getattr(args, "warm_corpus", None)
    if flag is None:
        return None
    if flag is not True:
        return flag
    if args.no_cache:
        print("error: --warm-corpus needs a result cache "
              "(drop --no-cache or pass an explicit backend spec)",
              file=sys.stderr)
        raise SystemExit(2)
    backend = getattr(args, "cache_backend", None)
    if backend:
        return backend
    from repro.runner import DEFAULT_CACHE_DIR

    return f"disk:{args.cache_dir or DEFAULT_CACHE_DIR}"


def _install_cli_faults(args: argparse.Namespace, run_dir: Path | None) -> None:
    """Install a ``--faults`` schedule before a command starts running.

    The state directory (fleet-wide fault caps + per-process fault
    logs) lands under the run directory when the command has one, so a
    chaos run's artifacts sit next to its run log.
    """
    faults = getattr(args, "faults", None)
    if not faults:
        return
    from repro.faults.injector import install

    install(
        faults,
        seed=getattr(args, "fault_seed", 0),
        state_dir=(run_dir / "faults") if run_dir is not None else None,
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro import runner
    from repro.runner import CampaignSpec, campaign_to_dict, format_campaign
    from repro.runner.spec import tier_preset

    if args.circuits:
        delay_specs = ()
        if args.specs:
            delay_specs = tuple(_parse_float_list(args.specs, "--specs"))
            if any(s <= 0 for s in delay_specs):
                print(f"error: delay specs must be positive fractions of "
                      f"Dmin, got {args.specs}", file=sys.stderr)
                return 2
        spec = CampaignSpec(
            name=args.name or "campaign",
            circuits=tuple(args.circuits.split(",")),
            delay_specs=delay_specs,
            flow_backends=(args.backend,),
            kind=args.kind,
        )
    else:
        spec = tier_preset(args.tier, flow_backend=args.backend)
        if args.kind != spec.kind:
            spec = dataclasses.replace(spec, kind=args.kind)
    run_dir = Path(args.run_dir or Path("runs") / spec.name)
    _install_cli_faults(args, run_dir)
    result = runner.run(
        spec,
        jobs=args.jobs,
        cache=_campaign_cache(args),
        run_dir=run_dir,
        timeout=args.timeout,
        warm_corpus=_warm_corpus_spec(args),
    )
    if args.json:
        print(json.dumps(campaign_to_dict(result), indent=2))
    else:
        print(format_campaign(result))
        print(f"run log: {run_dir / 'campaign.jsonl'}")
    return 0 if result.n_failed == 0 else 1


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro import runner
    from repro.runner import campaign_to_dict, format_campaign

    _install_cli_faults(args, Path(args.run_dir))
    result = runner.resume(
        args.run_dir,
        jobs=args.jobs,
        cache=_campaign_cache(args),
        timeout=args.timeout,
        warm_corpus=_warm_corpus_spec(args),
    )
    if args.json:
        print(json.dumps(campaign_to_dict(result), indent=2))
    else:
        print(format_campaign(result))
    return 0 if result.n_failed == 0 else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.runner import format_status, load_run, status_dict

    state = load_run(args.run_dir)
    if args.json:
        print(json.dumps(status_dict(state), indent=2))
    else:
        print(format_status(state))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    if args.max_attempts is not None and args.max_attempts < 1:
        print(f"error: --max-attempts must be >= 1, got {args.max_attempts}",
              file=sys.stderr)
        return 2
    if args.visibility_timeout is not None and args.visibility_timeout <= 0:
        print(f"error: --visibility-timeout must be positive, "
              f"got {args.visibility_timeout:g}", file=sys.stderr)
        return 2
    # None means "the library default" — serve() owns the real values.
    failure_knobs = {
        key: value
        for key, value in (
            ("max_attempts", args.max_attempts),
            ("visibility_timeout", args.visibility_timeout),
        )
        if value is not None
    }
    cache = args.cache_backend or args.cache_dir
    return serve(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache="" if args.no_cache else cache,
        run_dir=args.run_dir,
        timeout=args.timeout,
        queue=args.queue,
        max_queue_depth=args.max_queue_depth,
        quota_rate=args.quota,
        quota_burst=args.quota_burst,
        trace=not args.no_trace,
        warm_corpus=_warm_corpus_spec(args),
        faults=args.faults,
        fault_seed=args.fault_seed,
        **failure_knobs,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.waterfall import trace_report

    report = trace_report(
        args.ref,
        files=tuple(args.file or ()),
        json_out=args.json,
    )
    try:
        print(report)
    except BrokenPipeError:
        # Waterfalls are long; `... | head` closing the pipe is normal.
        sys.stderr.close()
    return 0


def _add_trace_parser(sub) -> None:
    p_trace = sub.add_parser(
        "trace",
        help="render a trace.jsonl span tree as a waterfall",
        description="Per-job trace waterfall: pass a trace.jsonl path "
                    "(renders its most recent trace) or a trace id "
                    "(searched in --file, default ./trace.jsonl).  "
                    "Shows the span tree with durations, scaled bars "
                    "and the critical span path.",
    )
    p_trace.add_argument("ref",
                         help="a trace id, or a path to a trace.jsonl")
    p_trace.add_argument("--file", action="append", default=None,
                         help="trace.jsonl file(s) to search when REF is "
                              "a trace id (repeatable; default "
                              "./trace.jsonl)")
    p_trace.add_argument("--json", action="store_true",
                         help="emit the span tree as JSON instead of the "
                              "rendered waterfall")
    p_trace.set_defaults(func=_cmd_trace)


def _add_serve_parser(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="run the sizing service (JSON over HTTP)",
        description="Long-lived sizing service: POST /v1/size against a "
                    "bounded worker pool with the campaign result cache; "
                    "GET /v1/jobs/<id>, /v1/circuits, /v1/backends, "
                    "/v1/healthz, /v1/stats.",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="TCP port (default 8765; 0 = pick a free one)")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="sizing workers (1 = one dedicated thread, "
                              ">1 = a process pool)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="result cache directory "
                              "(default .repro-cache)")
    p_serve.add_argument("--cache-backend", default=None,
                         help="result cache backend spec: disk:PATH, "
                              "sqlite:PATH, or tiered:LOCAL_DIR,SHARED "
                              "(overrides --cache-dir)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the result cache entirely")
    p_serve.add_argument("--run-dir", default=None,
                         help="directory for the restart-surviving "
                              "queue.db job store (unless --queue names "
                              "one), trace.jsonl and spooled netlists")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-request wall-time budget in seconds")
    p_serve.add_argument("--queue", default=None,
                         help="work-queue database (default "
                              "RUN_DIR/queue.db, or a temporary file "
                              "without --run-dir); replicas given the "
                              "same path form one fleet")
    p_serve.add_argument("--max-queue-depth", type=int, default=None,
                         help="reject new jobs (429) once this many are "
                              "queued or running (default: unbounded)")
    p_serve.add_argument("--quota", type=float, default=None,
                         help="per-client admission quota in requests/s "
                              "(default: no quotas)")
    p_serve.add_argument("--quota-burst", type=float, default=None,
                         help="per-client burst allowance "
                              "(default: 2x --quota)")
    p_serve.add_argument("--warm-corpus", nargs="?", const=True,
                         default=None, metavar="SPEC",
                         help="seed cache misses from nearest prior "
                              "solutions (results stay bitwise "
                              "identical); bare flag reuses the service "
                              "cache, SPEC names another backend")
    p_serve.add_argument("--no-trace", action="store_true",
                         help="disable span tracing (metrics stay on); "
                              "with tracing and a --run-dir, spans "
                              "append to RUN_DIR/trace.jsonl")
    p_serve.add_argument("--visibility-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="lease duration before a dead worker's "
                              "in-flight jobs are re-claimed, also after "
                              "a restart (default 600)")
    p_serve.add_argument("--max-attempts", type=int, default=None,
                         help="lease attempts before a job is "
                              "poison-parked in the dead-letter queue "
                              "(default 3)")
    _add_fault_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)


def _add_fault_flags(p) -> None:
    """``--faults`` / ``--fault-seed`` for commands that execute jobs."""
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault injection: semicolon-"
                        "separated SITE:KIND[=ARG]@RATE[*MAX] rules, "
                        "e.g. 'cache.get:io_error@0.05;"
                        "worker:kill@0.02*2' (see the user guide)")
    p.add_argument("--fault-seed", type=int, default=0, metavar="N",
                   help="seed for the fault schedule; same spec + seed "
                        "replays the same faults (default 0)")


def _add_campaign_parser(sub) -> None:
    p_camp = sub.add_parser(
        "campaign",
        help="parallel sizing campaigns (cached, resumable)",
        description="Run circuit×target sweeps on a process pool with a "
                    "content-addressed result cache and a resumable "
                    "JSONL run log.",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    def _common(p, with_spec: bool) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = run in-process)")
        p.add_argument("--cache-dir", default=None,
                       help="result cache directory "
                            "(default .repro-cache)")
        p.add_argument("--cache-backend", default=None,
                       help="result cache backend spec: disk:PATH, "
                            "sqlite:PATH, or tiered:LOCAL_DIR,SHARED "
                            "(overrides --cache-dir)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-time budget in seconds")
        p.add_argument("--warm-corpus", nargs="?", const=True,
                       default=None, metavar="SPEC",
                       help="seed solves from nearest prior solutions "
                            "(results stay bitwise identical); bare flag "
                            "reuses the campaign cache, SPEC names "
                            "another backend")
        p.add_argument("--json", action="store_true",
                       help="print a JSON digest instead of tables")
        _add_fault_flags(p)
        if with_spec:
            p.add_argument("--circuits", default=None,
                           help="comma-separated circuit tokens (suite "
                                "names, rca:N, .bench paths)")
            p.add_argument("--specs", default=None,
                           help="comma-separated delay-target fractions "
                                "of Dmin (default: each circuit's "
                                "Table 1 spec)")
            p.add_argument("--tier", default=None,
                           choices=["smoke", "paper"],
                           help="preset sweep when --circuits is absent")
            p.add_argument("--kind", default="sizing",
                           choices=list(JOB_KINDS),
                           help="job kind: sizing (full pipeline) or "
                                "phases (timing study)")
            p.add_argument("--flow-backend", "--backend", dest="backend",
                           default="auto", type=_flow_backend,
                           choices=BACKEND_CHOICES)
            p.add_argument("--name", default=None,
                           help="campaign name (run-dir default stem)")
            p.add_argument("--run-dir", default=None,
                           help="run-log directory "
                                "(default runs/<name>)")

    p_run = camp_sub.add_parser("run", help="run a campaign")
    _common(p_run, with_spec=True)
    p_run.set_defaults(func=_cmd_campaign_run)

    p_resume = camp_sub.add_parser(
        "resume", help="resume an interrupted campaign"
    )
    p_resume.add_argument("run_dir", help="directory with campaign.jsonl")
    _common(p_resume, with_spec=False)
    p_resume.set_defaults(func=_cmd_campaign_resume)

    p_status = camp_sub.add_parser(
        "status", help="summarize a run directory"
    )
    p_status.add_argument("run_dir", help="directory with campaign.jsonl")
    p_status.add_argument("--json", action="store_true")
    p_status.set_defaults(func=_cmd_campaign_status)


def _cmd_queue_inspect(args: argparse.Namespace) -> int:
    from repro.service.queue import WorkQueue

    if not Path(args.db).exists():
        print(f"error: no queue database at {args.db}", file=sys.stderr)
        return 2
    queue = WorkQueue(args.db)
    failed = queue.failed_jobs(limit=args.limit)
    if args.json:
        print(json.dumps(
            {"failed": failed, "poisoned": queue.poisoned_count()}, indent=2,
        ))
        return 0
    if not failed:
        print("dead-letter queue is empty")
        return 0
    rows = []
    for job in failed:
        history = job.get("history") or []
        last = history[-1] if history else {}
        rows.append([
            job["id"],
            (job.get("label") or "?"),
            str(job.get("attempts")),
            last.get("event") or "?",
            (job.get("error") or "")[:60],
        ])
    print(format_table(
        ["job", "label", "attempts", "last event", "error"],
        rows,
        title=f"dead-letter jobs in {args.db}",
    ))
    print(f"{queue.poisoned_count()} poison-parked "
          f"(requeue with: python -m repro queue requeue {args.db} JOB_ID)")
    return 0


def _cmd_queue_requeue(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.queue import WorkQueue

    if not args.job_ids and not args.all_failed:
        print("error: give JOB_ID(s) or --all-failed", file=sys.stderr)
        return 2
    if not Path(args.db).exists():
        print(f"error: no queue database at {args.db}", file=sys.stderr)
        return 2
    queue = WorkQueue(args.db)
    job_ids = list(args.job_ids)
    if args.all_failed:
        job_ids += [
            job["id"] for job in queue.failed_jobs(limit=10_000)
            if job["id"] not in job_ids
        ]
    skipped = 0
    for job_id in job_ids:
        try:
            record = queue.requeue(job_id)
        except ServiceError as exc:
            # Per-job diagnosis, not a hard stop: one unreadable row
            # must not block requeueing the rest of the batch.
            print(f"skipped {job_id}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        print(f"requeued {record.id} ({record.job.label()})")
    return 1 if skipped else 0


def _add_queue_parser(sub) -> None:
    p_queue = sub.add_parser(
        "queue",
        help="inspect/requeue a service queue's dead-letter jobs",
        description="Operator tools for a service work-queue database "
                    "(RUN_DIR/queue.db, or the serve --queue path): "
                    "list permanently failed jobs with their attempt "
                    "history, and send them back to the queue after "
                    "fixing the cause.",
    )
    queue_sub = p_queue.add_subparsers(dest="queue_command", required=True)

    p_inspect = queue_sub.add_parser(
        "inspect", help="list dead-letter jobs with error history"
    )
    p_inspect.add_argument("db", help="work-queue database path")
    p_inspect.add_argument("--limit", type=int, default=100,
                           help="most dead-letter rows to show "
                                "(default 100)")
    p_inspect.add_argument("--json", action="store_true",
                           help="machine-readable output, full history "
                                "included")
    p_inspect.set_defaults(func=_cmd_queue_inspect)

    p_requeue = queue_sub.add_parser(
        "requeue", help="send failed jobs back to the queue"
    )
    p_requeue.add_argument("db", help="work-queue database path")
    p_requeue.add_argument("job_ids", nargs="*", metavar="JOB_ID",
                           help="job id(s) to requeue")
    p_requeue.add_argument("--all-failed", action="store_true",
                           help="requeue every dead-letter job")
    p_requeue.set_defaults(func=_cmd_queue_requeue)


def build_parser() -> argparse.ArgumentParser:
    """The complete ``python -m repro`` argument parser.

    Exposed separately from :func:`main` so tooling can validate
    command lines without executing them — ``tools/check_docs.py``
    parses every ``python -m repro`` invocation in the documentation
    against this parser, which is what keeps the user guide's commands
    copy-pasteable.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_size = sub.add_parser("size", help="size a circuit to a delay target")
    p_size.add_argument("circuit", help="suite name or .bench path")
    p_size.add_argument("--spec", type=float, default=0.5,
                        help="delay target as a fraction of Dmin")
    p_size.add_argument("--mode", choices=["gate", "transistor"],
                        default="gate")
    p_size.add_argument("--wires", action="store_true",
                        help="size wires simultaneously (section 2.1)")
    p_size.add_argument("--flow-backend", "--backend", dest="backend",
                        default="auto", type=_flow_backend,
                        choices=BACKEND_CHOICES,
                        help="D-phase LP solver: 'networkx' (network "
                             "simplex), 'scipy' (HiGHS) or 'auto' "
                             "(picks by LP size)")
    p_size.add_argument("--flow-stats", action="store_true",
                        help="print per-backend solver statistics")
    p_size.add_argument("--phase-stats", action="store_true",
                        help="print a per-phase wall-time breakdown "
                             "(TILOS, timing, balancing, D-phase flow, "
                             "W-phase sweeps)")
    p_size.add_argument("--out", help="write per-vertex sizes to a file")
    p_size.set_defaults(func=_cmd_size)

    p_stats = sub.add_parser("stats", help="structural statistics")
    p_stats.add_argument("circuit")
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_stats.set_defaults(func=_cmd_stats)

    p_suite = sub.add_parser("suite", help="list the benchmark suite")
    p_suite.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_suite.set_defaults(func=_cmd_suite)

    _add_campaign_parser(sub)
    _add_serve_parser(sub)
    _add_queue_parser(sub)
    _add_trace_parser(sub)

    p_t1 = sub.add_parser("table1", help="regenerate Table 1")
    p_t1.add_argument("--tier", default=None, choices=["smoke", "paper"])
    p_t1.add_argument("--flow-backend", "--backend", dest="backend",
                      default="auto", type=_flow_backend,
                      choices=BACKEND_CHOICES)
    p_t1.add_argument("--jobs", type=int, default=1)
    p_t1.add_argument("--cache-dir", default=None,
                      help="replay/store rows in a campaign result cache")
    p_f7 = sub.add_parser("figure7", help="regenerate Figure 7")
    p_f7.add_argument("--circuits", default=None)
    p_f7.add_argument("--ratios", default=None)
    p_f7.add_argument("--jobs", type=int, default=1)
    p_f7.add_argument("--cache-dir", default=None,
                      help="replay/store points in a campaign result cache")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors (2) and --help (0); hand the
        # code back like every other command does.
        return exc.code
    try:
        if args.command == "table1":
            from repro.experiments.table1 import format_table1, run_table1

            print(format_table1(run_table1(
                args.tier, args.backend, jobs=args.jobs,
                cache=args.cache_dir,
            )))
            return 0
        if args.command == "figure7":
            from repro.experiments.figure7 import (
                DEFAULT_RATIOS,
                default_circuits,
                format_panel,
                run_panel,
            )

            names = (
                args.circuits.split(",") if args.circuits
                else default_circuits()
            )
            ratios = (
                _parse_float_list(args.ratios, "--ratios")
                if args.ratios
                else DEFAULT_RATIOS
            )
            for name in names:
                print(format_panel(run_panel(
                    name, ratios, jobs=args.jobs, cache=args.cache_dir,
                )))
            return 0
        return args.func(args)
    except ReproError as exc:
        # Library-level misuse (unknown circuit token, bad backend name,
        # malformed run dir, ...): a clean diagnostic, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
