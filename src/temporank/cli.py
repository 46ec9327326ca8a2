"""Command-line front end.

Subcommands: compute (trajectory), converge (discretization error study),
localize (per-node rank bounds), compare (per-instant tau between two
runs), ingest (event stream to network file), validate (diagnose a
network file).

Each run flag is declared once: its ``dest`` is the :class:`RunConfig`
field it sets, and :func:`_resolve` lays the given ones over the config
file.  One builder, :func:`_build_run`, turns the resolved config into a
run's inputs, and refuses a flag the run would leave unread (its
``unread`` table: a grid on a discrete network or in `converge`, a
quadrature setting on a discrete network, a solver method or iteration
budget in `localize`); a config's keys are never refused, as
``--dump-config`` writes them all.  Every command writes its table
through :func:`_write_table`.

Score and time columns are printed with shortest round-trip precision,
so identical configurations produce byte-identical files; the only
nondeterministic line is the leading timestamp comment, suppressed by
``--no-header`` (JSON output never has one).  Node indices are 1-based
on every file and flag; internals are 0-based.

Each command imports the modules it runs when it runs, so a process
loads only those: `ingest` and `validate` never load the solvers, and a
preset run never loads the network-file reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import namedtuple
from dataclasses import fields, replace
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, TemporankError

if TYPE_CHECKING:
    from . import config as configmod

__all__ = ["main"]

_UNIT_SECONDS = {"second": 1.0, "minute": 60.0, "hour": 3600.0, "day": 86400.0}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TemporankError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------- parsing

_NUMBER = r"(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?i:inf(?:inity)?|nan))"


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that reads `-1e-05`, `-inf` and `-1,2,3` as values, like `-1.5`.

    argparse takes a word for a value rather than an option when it matches
    ``_negative_number_matcher``; the stock pattern knows no exponents, no
    `inf`/`infinity`/`nan` (any case, as ``float`` reads them) and no
    comma-separated lists.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"^-{_NUMBER}(?:,[-+]?{_NUMBER})*$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="temporank",
        description="Time-dependent personalized PageRank for temporal networks.")
    commands = parser.add_subparsers(dest="command", required=True)

    compute = commands.add_parser(
        "compute", help="rank trajectory of a temporal network")
    _add_run_flags(compute)
    compute.set_defaults(func=cmd_compute)

    converge = commands.add_parser(
        "converge", help="discretization error of truncated trajectories")
    _add_run_flags(converge)
    converge.add_argument("--sizes", default="5,9,101", metavar="N,N,...",
                          help="partition sizes to test (default 5,9,101)")
    converge.set_defaults(func=cmd_converge)

    localize = commands.add_parser(
        "localize", help="per-node bounds holding for every personalization")
    _add_run_flags(localize)
    localize.add_argument("--nodes", default="all", metavar="I,J,... or all",
                          help="1-based nodes to bound (default all)")
    localize.set_defaults(func=cmd_localize)

    compare = commands.add_parser(
        "compare", help="per-instant Kendall tau-b between two configured runs")
    compare.add_argument("config_a", help="configuration of the first run")
    compare.add_argument("config_b", help="configuration of the second run")
    compare.add_argument("--threads", type=int, dest="threads")
    _add_output_flags(compare)
    compare.set_defaults(func=cmd_compare)

    ingest = commands.add_parser(
        "ingest", help="replay a timestamped edge-event stream into a network file")
    ingest.add_argument("--events", required=True, metavar="FILE",
                        help="lines of `src dst delta timestamp`")
    ingest.add_argument("--grid", required=True, metavar="START,STEP,COUNT",
                        help="sample instants, in --unit units")
    ingest.add_argument("--policy", choices=("strict", "clamp"), default="strict",
                        help="below-zero decrements: error, or pin at 0")
    ingest.add_argument("--unit", choices=sorted(_UNIT_SECONDS), default="second",
                        help="unit of the grid and of stored instants "
                             "(event timestamps are always seconds)")
    ingest.add_argument("--lenient", action="store_true",
                        help="skip events with delta outside +1/-1 instead of failing")
    ingest.add_argument("--initial", metavar="FILE",
                        help="discrete network file whose first snapshot seeds day zero")
    ingest.add_argument("--output", default="-", metavar="FILE",
                        help="network description destination (- is stdout)")
    ingest.set_defaults(func=cmd_ingest)

    check = commands.add_parser(
        "validate", help="report every format or invariant violation of a network file")
    check.add_argument("network", help="network description file")
    check.set_defaults(func=cmd_validate)
    return parser


def _add_run_flags(parser: argparse.ArgumentParser):
    """The run flags.  Each one's dest is the RunConfig field it sets, but for --config,
    --dump-config and the four whose value is a spec of fields (--damping,
    --personalization, --grid, --no-header)."""
    parser.add_argument("--config", metavar="FILE", help="run configuration file")
    parser.add_argument("--network", metavar="FILE", dest="network_file",
                        help="network description file")
    parser.add_argument("--preset", metavar="NAME", dest="network_preset",
                        help="built-in network, e.g. paper-synthetic")
    parser.add_argument("--rate", type=float, metavar="ALPHA", dest="kernel_rate",
                        help="exponential decay rate")
    parser.add_argument("--damping", metavar="SPEC",
                        help="constant value like 0.85, or linear:START:END")
    parser.add_argument("--personalization", metavar="SPEC",
                        help="uniform | input | inverse-input | file:PATH")
    parser.add_argument("--solver", choices=("auto", "direct", "power"),
                        dest="solver_method")
    parser.add_argument("--tol", type=float, dest="solver_tol", help="solver tolerance")
    parser.add_argument("--max-iter", type=int, dest="solver_max_iter")
    parser.add_argument("--threads", type=int, dest="threads")
    parser.add_argument("--quad-tol", type=float, dest="quad_tol")
    parser.add_argument("--quad-max-subdiv", type=int, dest="quad_max_subdiv")
    parser.add_argument("--grid-count", type=int, dest="grid_count",
                        help="uniform grid size over the network interval")
    parser.add_argument("--grid", metavar="START,STEP,COUNT",
                        help="explicit arithmetic evaluation grid")
    parser.add_argument("--dump-config", metavar="FILE", dest="dump_config",
                        help="write the fully resolved configuration, then run")
    _add_output_flags(parser)


def _add_output_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("csv", "json"), dest="output_format")
    parser.add_argument("--output", metavar="FILE", dest="output_path",
                        help="- is stdout (default)")
    parser.add_argument("--no-header", action="store_true", dest="no_header",
                        help="omit the timestamp comment line from CSV output")


def _resolve(args) -> configmod.RunConfig:
    from . import config as configmod
    base = configmod.read_config(args.config) if args.config else None
    if args.network_file is not None and args.network_preset is not None:
        raise InvalidInputError("give --network or --preset, not both")
    if base is not None and (args.network_file, args.network_preset) != (None, None):
        base = replace(base, network_file=None, network_preset=None)

    overrides = {field.name: getattr(args, field.name, None)
                 for field in fields(configmod.RunConfig)}
    if args.damping is not None:
        overrides.update(_damping_spec(args.damping))
    if args.personalization is not None:
        overrides.update(_personalization_spec(args.personalization))
    if args.grid is not None:
        start, step, count = _grid_spec(args.grid)
        if args.grid_count is not None:
            raise InvalidInputError("give --grid or --grid-count, not both")
        overrides.update(grid_start=start, grid_step=step, grid_count=count)
    if args.no_header:
        overrides["output_header"] = False
    cfg = configmod.resolve_config(base, **overrides)
    if args.dump_config:
        with open(args.dump_config, "w", encoding="utf-8") as handle:
            handle.write(configmod.dump_config(cfg))
    return cfg


def _damping_spec(spec: str) -> dict:
    if spec.startswith("linear:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"expected linear:START:END, got {spec!r}")
        return {"damping_kind": "linear",
                "damping_start": _float(parts[1], "damping start"),
                "damping_end": _float(parts[2], "damping end")}
    return {"damping_kind": "constant",
            "damping_value": _float(spec, "damping")}


def _personalization_spec(spec: str) -> dict:
    if spec in ("uniform", "input", "inverse-input"):
        return {"personalization_kind": spec}
    if spec.startswith("file:"):
        return {"personalization_kind": "file",
                "personalization_file": spec[len("file:"):]}
    raise InvalidInputError(
        f"expected uniform, input, inverse-input or file:PATH, got {spec!r}")


def _grid_spec(spec: str) -> tuple[float, float, int]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise InvalidInputError(f"expected START,STEP,COUNT, got {spec!r}")
    return (_float(parts[0], "grid start"), _float(parts[1], "grid step"),
            _int(parts[2], "grid count"))


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidInputError(f"{what} {text!r} is not a number") from None


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"{what} {text!r} is not an integer") from None


# ----------------------------------------------------------------- output

def _write_table(out_format: str, path: str, stamped: bool, header: str, rows, records):
    """Write a command's table to ``path`` (- is stdout): as CSV, the ``header`` line and the
    ``rows`` lines, after a timestamp comment if ``stamped``, or as JSON, the list of
    ``records``.  ``rows`` and ``records`` are lazy; only the one written is drawn."""
    if out_format == "csv":
        stamp = ["# " + datetime.now(timezone.utc).isoformat()] if stamped else []
        text = "\n".join([*stamp, header, *rows]) + "\n"
    else:
        text = json.dumps(list(records), indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _fmts(values) -> list[str]:
    """Shortest round-trip text of every entry of a float array."""
    return [repr(value) for value in np.asarray(values, dtype=float).tolist()]


# --------------------------------------------------------------- commands

#: the inputs of one configured run, as :func:`_build_run` makes them
_Run = namedtuple("_Run", "cfg network kernel damping personalization grid quad")


def _build_run(cfg: configmod.RunConfig, args, network=None) -> _Run:
    """The inputs of the run of ``args.command`` configured by ``cfg``; ``network``, if
    given, is the one ``cfg`` names, already built.  A flag given in ``args`` that the run
    leaves unread is refused, by the table below; so is an explicit grid from a config,
    as the flag is, but no other config key, as --dump-config writes them all."""
    from . import config as configmod
    from .graph import DiscreteTemporalNetwork
    # (kind of run, the flags it leaves unread by dest, the refusal)
    unread = [
        ("converge", ("grid", "grid_count"),
         "a convergence study's grids are its partitions (--sizes); give no grid"),
        ("localize", ("solver_method", "solver_max_iter"),
         "localization bounds choose their own solver; give no --solver or --max-iter"),
        ("discrete", ("grid", "grid_count"), configmod._OWN_INSTANTS),
        ("discrete", ("quad_tol", "quad_max_subdiv"), "a discrete network is summed, "
         "not integrated; give no --quad-tol or --quad-max-subdiv"),
        ("direct", ("solver_tol", "solver_max_iter"), "the direct solver takes no tolerance "
         "or iteration budget; give no --tol or --max-iter"),
    ]
    given = {name for name, value in vars(args).items() if value is not None}
    if cfg.grid_start is not None:
        given.add("grid")

    def refuse(kind):
        for row_kind, flags, refusal in unread:
            if row_kind == kind and given.intersection(flags):
                raise InvalidInputError(refusal)

    refuse(args.command)
    if args.command in ("compute", "converge") and cfg.solver_method == "direct":
        refuse("direct")
    if network is None:
        network = configmod.build_network(cfg)
    if isinstance(network, DiscreteTemporalNetwork):
        if args.command == "converge":
            raise InvalidInputError("convergence studies need a continuous network")
        refuse("discrete")
    return _Run(cfg, network, configmod.build_kernel(cfg), configmod.build_damping(cfg),
                configmod.build_personalization(cfg),
                None if args.command == "converge" else configmod.build_grid(cfg, network),
                configmod.build_quadrature(cfg))


def _trajectory_for(run: _Run, network=None, grid=None):
    """The configured trajectory of ``network``, by default the run's: a continuous one runs
    on ``grid``, by default the run's, and a discrete one, such as the :func:`truncate`
    network of `converge`, on its instants."""
    from .graph import ContinuousTemporalNetwork
    from .pagerank import trajectory_continuous, trajectory_discrete
    cfg, network = run.cfg, run.network if network is None else network
    solver = {"solver": cfg.solver_method, "tol": cfg.solver_tol,
              "max_iter": cfg.solver_max_iter, "threads": cfg.threads}
    if isinstance(network, ContinuousTemporalNetwork):
        trajectory = trajectory_continuous(
            network, run.kernel, run.damping, run.personalization,
            run.grid if grid is None else grid, quad=run.quad, **solver)
    else:
        trajectory = trajectory_discrete(network, run.kernel, run.damping,
                                         run.personalization, **solver)
    trajectory.metadata.setdefault("label", cfg.personalization_kind)
    return trajectory


def cmd_compute(args) -> int:
    cfg = _resolve(args)
    trajectory = _trajectory_for(_build_run(cfg, args))
    instants, vectors = trajectory.instants, trajectory.vectors
    _write_table(
        cfg.output_format, cfg.output_path, cfg.output_header, "instant,node,score",
        (f"{t},{node},{score!r}" for k, t in enumerate(_fmts(instants))
         for node, score in enumerate(vectors[k].tolist(), start=1)),
        ({"instant": float(t), "scores": [float(s) for s in vectors[k]]}
         for k, t in enumerate(instants)))
    solved = "direct solve" if trajectory.metadata["solver"] == "direct" else \
        f"power iterations <= {max(trajectory.metadata['iterations'])}"
    print(f"{len(instants)} instants, n={trajectory.n}, {solved}, "
          f"residual <= {max(trajectory.metadata['residuals']):.3e}", file=sys.stderr)
    return 0


def cmd_converge(args) -> int:
    from .accumulate import truncate
    cfg = _resolve(args)
    run = _build_run(cfg, args)
    sizes = sorted({_int(part, "partition size") for part in args.sizes.split(",")})
    if any(size < 2 for size in sizes):
        raise InvalidInputError("partition sizes must be >= 2")
    results = []
    for size in sizes:
        truncated = truncate(run.network, size)
        discrete = _trajectory_for(run, truncated)
        continuous = _trajectory_for(run, grid=truncated.instants)
        errors = np.abs(discrete.vectors - continuous.vectors)
        line = f"N={size}: max |discrete - continuous| = {errors.max():.6e}"
        if results and results[-1][2].max() > 0 and errors.max() > 0:
            # e(N) falls as (N - 1)^-p from the size before
            previous, _, earlier = results[-1]
            order = (math.log(earlier.max()) - math.log(errors.max())) \
                / math.log((size - 1) / (previous - 1))
            line += f", observed order {order:.3f} from N={previous}"
        print(line, file=sys.stderr)
        results.append((size, truncated.instants, errors))

    _write_table(
        cfg.output_format, cfg.output_path, cfg.output_header, "size,instant,node,abs_error",
        (f"{size},{t},{node},{err!r}" for size, instants, errors in results
         for t, row in zip(_fmts(instants), errors.tolist())
         for node, err in enumerate(row, start=1)),
        ({"size": size, "max_error": float(errors.max()),
          "instants": [float(t) for t in instants],
          "errors": [[float(e) for e in row] for row in errors]}
         for size, instants, errors in results))
    return 0


def cmd_localize(args) -> int:
    from .localization import bounds_trajectory
    cfg = _resolve(args)
    run = _build_run(cfg, args)
    if args.nodes.strip() == "all":
        nodes = None
    else:
        nodes = [_int(part, "node") - 1 for part in args.nodes.split(",")]
        if not all(0 <= node < run.network.n for node in nodes):
            raise InvalidInputError(f"node subset outside 1..{run.network.n}")
    bounds = bounds_trajectory(
        run.network, run.kernel, run.damping, nodes=nodes, grid=run.grid, quad=run.quad,
        dangling_dist=run.personalization, tol=cfg.solver_tol, threads=cfg.threads)
    numbers = (bounds.nodes + 1).tolist()
    _write_table(
        cfg.output_format, cfg.output_path, cfg.output_header, "instant,node,lo,hi",
        (f"{t},{node},{lo!r},{hi!r}" for k, t in enumerate(_fmts(bounds.instants))
         for node, lo, hi in zip(numbers, bounds.lo[k].tolist(), bounds.hi[k].tolist())),
        ({"instant": float(t), "nodes": numbers,
          "lo": [float(x) for x in bounds.lo[k]], "hi": [float(x) for x in bounds.hi[k]]}
         for k, t in enumerate(bounds.instants)))
    print(f"{len(bounds.instants)} instants, {len(bounds.nodes)} nodes bounded",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    """Output settings come from compare's own flags only, never from a config's [output]."""
    from . import config as configmod
    from .ranking import compare_trajectories
    cfg_a, cfg_b = (configmod.resolve_config(configmod.read_config(path), threads=args.threads)
                    for path in (args.config_a, args.config_b))
    run_a = _build_run(cfg_a, args)
    trajectory_a = _trajectory_for(run_a)
    shared = _network_source(cfg_b) == _network_source(cfg_a)
    trajectory_b = _trajectory_for(_build_run(cfg_b, args, run_a.network if shared else None))
    series = compare_trajectories(
        trajectory_a, trajectory_b,
        labels=(cfg_a.personalization_kind, cfg_b.personalization_kind))
    pair_label = f"{series.labels[0]} vs {series.labels[1]}"
    _write_table(
        args.output_format or "csv", args.output_path or "-", not args.no_header,
        "instant,tau,pair_label",
        (f"{t},{tau},{pair_label}" for t, tau in zip(_fmts(series.instants), _fmts(series.taus))),
        ({"instant": float(t), "tau": float(tau), "pair_label": pair_label}
         for t, tau in zip(series.instants, series.taus)))
    return 0


def _network_source(cfg: configmod.RunConfig):
    """What ``build_network(cfg)`` reads: the resolved file path, or the preset name."""
    path = cfg.network_file and os.path.realpath(cfg.network_file)
    return path, cfg.network_preset


def cmd_ingest(args) -> int:
    from . import ingest as ingestmod
    from . import netfile
    from .graph import DiscreteTemporalNetwork
    start, step, count = _grid_spec(args.grid)
    unit = _UNIT_SECONDS[args.unit]
    grid_seconds = ingestmod.sample_grid(start, step, count, unit)
    parsed = ingestmod.parse_events(args.events, strict=not args.lenient,
                                    t_max=float(grid_seconds[-1]))
    initial = None
    if args.initial is not None:
        seed = netfile.load_network(args.initial)
        if not isinstance(seed, DiscreteTemporalNetwork):
            raise InvalidInputError("--initial must be a discrete network file")
        initial = seed.snapshot_at(1)
    else:
        print("note: no initial adjacency; the running matrix starts empty",
              file=sys.stderr)
    network, clamped = ingestmod.build_snapshots(
        parsed.events, grid_seconds, n=parsed.n, initial=initial,
        policy=args.policy, instant_scale=unit)
    summary = ingestmod.summarize(parsed, clamped).as_dict()
    netfile.save_network(network, args.output if args.output != "-" else sys.stdout)
    summary_stream = sys.stderr if args.output == "-" else sys.stdout
    print(json.dumps(summary, indent=2), file=summary_stream)
    return 0


def cmd_validate(args) -> int:
    from . import netfile
    from .graph import ContinuousTemporalNetwork
    try:
        network = netfile.load_network(args.network)
    except TemporankError as err:
        print(str(err), file=sys.stderr)
        return 1
    kind = "continuous" if isinstance(network, ContinuousTemporalNetwork) else "discrete"
    print(f"ok: {kind} network, n={network.n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
