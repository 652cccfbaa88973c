"""Command-line entry point: regenerate any experiment of the paper.

Examples
--------
::

    python -m repro.cli list
    python -m repro.cli --list
    python -m repro.cli structures
    python -m repro.cli table1
    python -m repro.cli fig3 --seed 7
    python -m repro.cli range-queries --sizes 48,96
    python -m repro.cli throughput --format json
    python -m repro.cli congestion-rounds --sizes 64,256 --format csv
    python -m repro.cli churn --sizes 48
    python -m repro.cli --topology clustered,geo --sizes 64
    python -m repro.cli serve --port 8642 --items 256
    python -m repro.cli hammer --url http://127.0.0.1:8642 --sessions 8
    skipweb-repro theorem2-onedim

Each experiment prints an aligned text table by default; ``--format json``
and ``--format csv`` emit machine-readable rows instead, and ``--sizes``
overrides the problem sizes of every experiment that takes them.  The
same functions back the ``benchmarks/`` pytest modules, so numbers match
between the two routes.

``structures`` lists the :mod:`repro.api` registry — every structure
family constructible via ``Cluster(structure=<name>)`` — with its
capability flags (range, updates, bulk-load, durable) as
columns; the experiments themselves are re-plumbed through that same
façade, so the registry listing is also an index into what the
experiments deploy.

``--topology`` selects the link-cost models the ``topology`` experiment
compares (``flat`` is always included as the baseline); giving the flag
without an experiment name implies ``topology``.

``--faults`` selects the message drop rates the ``faults`` experiment
sweeps (rate ``0.0`` is always included as the baseline); giving the
flag without an experiment name implies ``faults``.

``serve`` hosts the :mod:`repro.server` HTTP/JSON service layer (the
full ``Cluster`` operation surface, churn lifecycle, sessions and the
live dashboard) on one stdlib ``asyncio`` event loop, until Ctrl-C or
SIGTERM (exit 0); ``hammer`` is its seeded load generator — see the
"serving" option group.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from typing import Any, Sequence

from repro.bench.experiments import EXPERIMENTS
from repro.bench.reporting import format_table
from repro.net.topology import TOPOLOGY_NAMES


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid sizes {text!r}: {exc}") from exc
    if not sizes or any(size <= 0 for size in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be positive integers, got {text!r}")
    return sizes


def _parse_topologies(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"no topology names in {text!r}")
    unknown = [name for name in names if name not in TOPOLOGY_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown topology {unknown[0]!r} (choose from {', '.join(TOPOLOGY_NAMES)})"
        )
    # Flat is always the comparison baseline: requesting clustered/geo
    # yields flat-vs-requested rows rather than an uncomparable table.
    if "flat" not in names:
        names = ("flat",) + names
    deduplicated: list[str] = []
    for name in names:
        if name not in deduplicated:
            deduplicated.append(name)
    return tuple(deduplicated)


def _parse_faults(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid drop rates {text!r}: {exc}") from exc
    if not rates or any(not 0.0 <= rate <= 1.0 for rate in rates):
        raise argparse.ArgumentTypeError(f"drop rates must be floats in [0, 1], got {text!r}")
    # Rate 0 is always the comparison baseline: the delivered-ratio and
    # retry-overhead columns only mean something against a lossless run.
    if 0.0 not in rates:
        rates = (0.0,) + rates
    deduplicated: list[float] = []
    for rate in rates:
        if rate not in deduplicated:
            deduplicated.append(rate)
    return tuple(deduplicated)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skipweb-repro",
        description="Reproduce the tables and figures of the skip-webs paper (PODC 2005).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS)
        + ["list", "all", "structures", "workload", "serve", "hammer"],
        help="experiment to run ('list' shows descriptions, 'all' runs everything, "
        "'structures' lists the repro.api structure registry, 'workload' runs "
        "the seeded durable workload — see --save/--resume; 'serve' hosts the "
        "HTTP/JSON service layer, 'hammer' load-tests it — see the serving group)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="print the experiment registry (name + description) and exit",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        dest="output_format",
        help="output format: aligned text table (default), JSON, or CSV",
    )
    parser.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=None,
        help="comma-separated problem sizes (e.g. 64,128,256); applied to every "
        "experiment that accepts a 'sizes' (or scalar 'n') parameter",
    )
    parser.add_argument(
        "--topology",
        type=_parse_topologies,
        default=None,
        metavar="NAMES",
        help="comma-separated topologies for the 'topology' experiment "
        "(flat, clustered, geo; flat is always included as the baseline); "
        "implies the 'topology' experiment when no name is given",
    )
    parser.add_argument(
        "--faults",
        type=_parse_faults,
        default=None,
        metavar="RATES",
        help="comma-separated message drop rates for the 'faults' experiment "
        "(floats in [0, 1]; 0.0 is always included as the baseline); "
        "implies the 'faults' experiment when no name is given",
    )
    parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=20,
        default=None,
        metavar="N",
        help="run each experiment under cProfile and print the top N functions "
        "by cumulative time to stderr (default N: 20)",
    )
    durability = parser.add_argument_group("durability ('workload' experiment only)")
    durability.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="journal the workload to PATH (a .jsonl directory, or a "
        ".sqlite/.sqlite3/.db file) so a killed run can be resumed",
    )
    durability.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="recover a previously --save'd workload from PATH and run it to "
        "completion; the final report is byte-identical to an uninterrupted run",
    )
    durability.add_argument(
        "--kill-after",
        type=int,
        default=None,
        metavar="K",
        help="SIGKILL the process the instant workload step K commits "
        "(requires --save; used by the recovery-gate CI job)",
    )
    durability.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="write a full-state snapshot every N journaled actions "
        "(default 0: log-only, recovery replays from genesis)",
    )
    durability.add_argument(
        "--steps", type=int, default=12, metavar="N", help="workload steps (default 12)"
    )
    durability.add_argument(
        "--structure",
        default="skipweb1d",
        metavar="NAME",
        help="structure family the workload deploys (default skipweb1d; "
        "see the 'structures' experiment for the registry)",
    )
    serving = parser.add_argument_group("serving ('serve' and 'hammer' only)")
    serving.add_argument(
        "--host", default="127.0.0.1", help="bind/connect address (default 127.0.0.1)"
    )
    serving.add_argument(
        "--port",
        type=int,
        default=8642,
        help="serve: bind port, 0 for OS-assigned (see --ready-file); "
        "hammer: connect port when no --url is given (default 8642)",
    )
    serving.add_argument(
        "--ready-file",
        metavar="PATH",
        default=None,
        help="serve: write 'host:port' to PATH once the socket is bound "
        "(the CI gate polls it instead of racing the listener)",
    )
    serving.add_argument(
        "--cluster",
        default="default",
        metavar="NAME",
        help="cluster name to serve initially / to hammer (default 'default')",
    )
    serving.add_argument(
        "--items",
        type=int,
        default=128,
        metavar="N",
        help="serve: size of the generated uniform ground set; hammer: "
        "regenerate the same N keys client-side so gets hit (default 128)",
    )
    serving.add_argument(
        "--spec",
        metavar="JSON",
        default=None,
        help="serve: full cluster spec as a JSON object (same shape as "
        "POST /clusters; overrides --structure/--items/--cluster/--seed)",
    )
    serving.add_argument(
        "--url",
        default=None,
        help="hammer: server base URL (default http://HOST:PORT)",
    )
    serving.add_argument(
        "--sessions",
        type=int,
        default=4,
        metavar="N",
        help="hammer: concurrent client sessions (default 4)",
    )
    serving.add_argument(
        "--ops",
        type=int,
        default=25,
        metavar="N",
        help="hammer: operations per session (default 25)",
    )
    serving.add_argument(
        "--mix",
        choices=("read", "write"),
        default="read",
        help="hammer: operation mix; 'read' (default) is interleaving-"
        "independent and backs the byte-identity gate, 'write' adds "
        "inserts/deletes for soak testing",
    )
    serving.add_argument(
        "--key-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="hammer: seed of the served ground set when it differs from "
        "--seed (default: --seed)",
    )
    serving.add_argument(
        "--determinism-file",
        metavar="PATH",
        default=None,
        help="hammer: write the deterministic per-session report (no "
        "wall-clock fields) to PATH; two seeded runs must byte-match",
    )
    serving.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="hammer: write a GitHub job-summary markdown table to PATH "
        "('-' for stdout)",
    )
    serving.add_argument(
        "--expect-ok",
        action="store_true",
        help="hammer: exit 1 unless every request succeeded and every "
        "operation handle came back status 'ok' (the CI serve-gate)",
    )
    return parser


def _experiment_kwargs(
    function,
    seed: int,
    sizes: tuple[int, ...] | None,
    topologies: tuple[str, ...] | None = None,
    drop_rates: tuple[float, ...] | None = None,
) -> dict[str, Any]:
    kwargs: dict[str, Any] = {"seed": seed}
    parameters = inspect.signature(function).parameters
    if sizes is not None:
        if "sizes" in parameters:
            kwargs["sizes"] = sizes
        elif "n" in parameters:
            kwargs["n"] = sizes[0]
    if topologies is not None and "topologies" in parameters:
        kwargs["topologies"] = topologies
    if drop_rates is not None and "drop_rates" in parameters:
        kwargs["drop_rates"] = drop_rates
    return kwargs


def _emit(rows: list[dict[str, Any]], name: str, description: str, output_format: str) -> None:
    if output_format == "json":
        print(
            json.dumps({"experiment": name, "description": description, "rows": rows}, default=str)
        )
        return
    if output_format == "csv":
        buffer = io.StringIO()
        columns = list(rows[0].keys()) if rows else []
        # Rows that already carry an 'experiment' column (the `list`
        # pseudo-experiment) must not get a duplicate one prepended.
        fieldnames = columns if "experiment" in columns else ["experiment"] + columns
        writer = csv.DictWriter(buffer, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({"experiment": name, **row})
        sys.stdout.write(buffer.getvalue())
        return
    print(format_table(rows, title=f"{name}: {description}"))
    print()


def _run_one(
    name: str,
    seed: int,
    output_format: str,
    sizes: tuple[int, ...] | None,
    profile: int | None = None,
    topologies: tuple[str, ...] | None = None,
    drop_rates: tuple[float, ...] | None = None,
) -> None:
    function, description = EXPERIMENTS[name]
    kwargs = _experiment_kwargs(function, seed, sizes, topologies, drop_rates)
    if profile is not None:
        rows = _run_profiled(function, kwargs, name, profile)
    else:
        rows = function(**kwargs)
    _emit(rows, name, description, output_format)


def _run_profiled(function, kwargs, name: str, top: int) -> list[dict[str, Any]]:
    """Run one experiment under cProfile, reporting the top-N to stderr."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        rows = function(**kwargs)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative")
    print(f"--- cProfile: {name} (top {top} by cumulative time) ---", file=sys.stderr)
    stats.print_stats(top)
    return rows


def _run_workload(args: argparse.Namespace) -> int:
    """Run (or resume) the seeded durable workload; see repro.storage.workload.

    The report row contains nothing run-path-dependent, so the JSON/CSV
    output of a killed-and-resumed run is byte-identical to an
    uninterrupted one — the recovery-gate CI job compares them with cmp.
    """
    from repro.storage.workload import resume_workload, run_workload

    if args.resume is not None:
        rows = resume_workload(args.resume)
    else:
        rows = run_workload(
            structure=args.structure,
            steps=args.steps,
            seed=args.seed,
            storage=args.save,
            snapshot_every=args.snapshot_every,
            kill_after=args.kill_after,
        )
    # One fixed description for both paths: --format json embeds it, and
    # the recovery gate byte-compares resumed vs uninterrupted output.
    _emit(rows, "workload", "Seeded durable workload", args.output_format)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Host the HTTP/JSON service layer until interrupted."""
    from repro.server import create_app, serve_forever

    if args.spec is not None:
        try:
            spec = json.loads(args.spec)
        except json.JSONDecodeError as exc:
            print(f"--spec is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(spec, dict):
            print("--spec must be a JSON object", file=sys.stderr)
            return 2
    else:
        spec = {
            "name": args.cluster,
            "structure": args.structure,
            "generate": {"kind": "uniform", "count": args.items, "seed": args.seed},
            "seed": args.seed,
        }
    app = create_app(initial=[spec])
    where = f"http://{args.host}:{args.port}" if args.port else f"{args.host}:<os-assigned>"
    print(
        f"serving cluster {spec.get('name', 'default')!r} "
        f"({spec.get('structure', 'skipweb1d')}) on {where} — dashboard at /",
        file=sys.stderr,
    )
    serve_forever(app, args.host, args.port, ready_file=args.ready_file)
    return 0


def _run_hammer(args: argparse.Namespace) -> int:
    """Drive the seeded load generator against a running server."""
    from repro.server import run_hammer

    url = args.url if args.url is not None else f"http://{args.host}:{args.port}"
    report = run_hammer(
        url,
        cluster=args.cluster,
        sessions=args.sessions,
        ops=args.ops,
        seed=args.seed,
        mix=args.mix,
        items=args.items,
        key_seed=args.key_seed if args.key_seed is not None else args.seed,
    )
    _emit(
        report.summary_rows(),
        "hammer",
        f"Seeded HTTP load generator against {url}",
        args.output_format,
    )
    if args.determinism_file is not None:
        with open(args.determinism_file, "w", encoding="utf-8") as handle:
            json.dump(report.deterministic_report(), handle, sort_keys=True)
            handle.write("\n")
    if args.markdown is not None:
        if args.markdown == "-":
            sys.stdout.write(report.markdown())
        else:
            with open(args.markdown, "w", encoding="utf-8") as handle:
                handle.write(report.markdown())
    if args.expect_ok and not report.all_ok:
        degraded = {
            status: count
            for status, count in report.by_op_status.items()
            if status != "ok"
        }
        print(
            f"hammer: --expect-ok failed: {report.transport_errors} transport "
            f"error(s), degraded statuses {degraded}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.topology is not None and args.experiment is None:
        args.experiment = "topology"
    if args.topology is not None and args.experiment not in ("topology", "all"):
        parser.error("--topology only applies to the 'topology' experiment")
    if args.faults is not None and args.experiment is None:
        args.experiment = "faults"
    if args.faults is not None and args.experiment not in ("faults", "all"):
        parser.error("--faults only applies to the 'faults' experiment")
    if args.experiment is None and not args.list_experiments:
        parser.error("an experiment name is required (or use --list)")
    if args.list_experiments and args.experiment not in (None, "list"):
        parser.error("--list cannot be combined with an experiment name")
    if args.list_experiments or args.experiment == "list":
        rows = [
            {"experiment": name, "description": description}
            for name, (_function, description) in sorted(EXPERIMENTS.items())
        ]
        if args.output_format == "table":
            print(format_table(rows, title="Available experiments"))
        else:
            _emit(rows, "list", "Available experiments", args.output_format)
        return 0
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "hammer":
        return _run_hammer(args)
    if args.experiment == "structures":
        from repro.api import structure_specs

        # Capability flags are real booleans in the machine-readable
        # formats (JSON true/false, CSV True/False); only the aligned
        # table renders them as yes/no for human eyes.
        flags = ("range", "updates", "bulk_load", "durable")
        rows = [
            {
                "structure": name,
                "class": spec.cls.__name__,
                "range": spec.supports_range,
                "updates": spec.supports_updates,
                "bulk_load": spec.bulk_factory is not None,
                "durable": spec.durable,
                "description": spec.description,
            }
            for name, spec in sorted(structure_specs().items())
        ]
        if args.output_format == "table":
            display = [
                {
                    **row,
                    **{flag: "yes" if row[flag] else "no" for flag in flags},
                }
                for row in rows
            ]
            print(format_table(display, title="Registered structures (repro.api.Cluster)"))
        else:
            _emit(rows, "structures", "Registered structures", args.output_format)
        return 0
    if args.experiment == "workload" or args.resume is not None:
        if args.resume is not None and args.experiment not in (None, "workload"):
            parser.error("--resume only applies to the 'workload' experiment")
        if args.resume is not None and args.save is not None:
            parser.error("--save and --resume are mutually exclusive")
        if args.kill_after is not None and args.save is None:
            parser.error("--kill-after requires --save (nothing would survive)")
        return _run_workload(args)
    if args.experiment == "all":
        for name in sorted(EXPERIMENTS):
            _run_one(
                name,
                args.seed,
                args.output_format,
                args.sizes,
                args.profile,
                args.topology,
                args.faults,
            )
        return 0
    _run_one(
        args.experiment,
        args.seed,
        args.output_format,
        args.sizes,
        args.profile,
        args.topology,
        args.faults,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
