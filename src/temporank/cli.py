"""Command-line front end.

Subcommands: compute (trajectory), converge (discretization error study),
localize (per-node rank bounds), compare (per-instant tau between two
runs), ingest (event stream to network file), validate (diagnose a
network file).

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
from dataclasses import replace
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
    compare.add_argument("--threads", type=int)
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
    parser.add_argument("--config", metavar="FILE", help="run configuration file")
    parser.add_argument("--network", metavar="FILE", help="network description file")
    parser.add_argument("--preset", metavar="NAME",
                        help="built-in network, e.g. paper-synthetic")
    parser.add_argument("--rate", type=float, metavar="ALPHA",
                        help="exponential decay rate")
    parser.add_argument("--damping", metavar="SPEC",
                        help="constant value like 0.85, or linear:START:END")
    parser.add_argument("--personalization", metavar="SPEC",
                        help="uniform | input | inverse-input | file:PATH")
    parser.add_argument("--solver", choices=("auto", "direct", "power"))
    parser.add_argument("--tol", type=float, help="solver tolerance")
    parser.add_argument("--max-iter", type=int, dest="max_iter")
    parser.add_argument("--threads", type=int)
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
    parser.add_argument("--format", choices=("csv", "json"), dest="format")
    parser.add_argument("--output", metavar="FILE", help="- is stdout (default)")
    parser.add_argument("--no-header", action="store_true", dest="no_header",
                        help="omit the timestamp comment line from CSV output")


def _resolve(args) -> configmod.RunConfig:
    from . import config as configmod
    base = configmod.read_config(args.config) if args.config else None
    if args.network is not None and args.preset is not None:
        raise InvalidInputError("give --network or --preset, not both")
    if base is not None and args.network is not None:
        base = replace(base, network_preset=None)
    if base is not None and args.preset is not None:
        base = replace(base, network_file=None)

    overrides = {
        "network_file": args.network,
        "network_preset": args.preset,
        "kernel_rate": args.rate,
        "solver_method": args.solver,
        "solver_tol": args.tol,
        "solver_max_iter": args.max_iter,
        "threads": args.threads,
        "quad_tol": args.quad_tol,
        "quad_max_subdiv": args.quad_max_subdiv,
        "output_format": args.format,
        "output_path": args.output,
    }
    if args.damping is not None:
        overrides.update(_damping_spec(args.damping))
    if args.personalization is not None:
        overrides.update(_personalization_spec(args.personalization))
    if args.grid is not None:
        start, step, count = _grid_spec(args.grid)
        overrides.update(grid_start=start, grid_step=step, grid_count=count)
    if args.grid_count is not None:
        if args.grid is not None:
            raise InvalidInputError("give --grid or --grid-count, not both")
        overrides["grid_count"] = args.grid_count
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

def _write_text(path: str, text: str):
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _csv_document(header_row: str, rows, stamped: bool) -> str:
    lines = []
    if stamped:
        lines.append("# " + datetime.now(timezone.utc).isoformat())
    lines.append(header_row)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _json_document(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _fmts(values) -> list[str]:
    """Shortest round-trip text of every entry of a float array."""
    return [repr(value) for value in np.asarray(values, dtype=float).tolist()]


# --------------------------------------------------------------- commands

def _trajectory_for(cfg: configmod.RunConfig, network=None, grid=None):
    """The configured trajectory: a continuous network runs on ``grid``, by default the
    configured one, and a discrete one, such as the :func:`truncate` network of `converge`,
    on its instants; a discrete network refuses a configured explicit grid."""
    from . import config as configmod
    from .graph import ContinuousTemporalNetwork
    from .pagerank import trajectory_continuous, trajectory_discrete
    if network is None:
        network = configmod.build_network(cfg)
    kernel = configmod.build_kernel(cfg)
    damping = configmod.build_damping(cfg)
    personalization = configmod.build_personalization(cfg)
    if grid is None:
        grid = configmod.build_grid(cfg, network)
    if not isinstance(network, ContinuousTemporalNetwork):
        trajectory = trajectory_discrete(
            network, kernel, damping, personalization,
            solver=cfg.solver_method, tol=cfg.solver_tol,
            max_iter=cfg.solver_max_iter, threads=cfg.threads)
    else:
        trajectory = trajectory_continuous(
            network, kernel, damping, personalization, grid,
            quad=configmod.build_quadrature(cfg),
            solver=cfg.solver_method, tol=cfg.solver_tol,
            max_iter=cfg.solver_max_iter, threads=cfg.threads)
    trajectory.metadata.setdefault("label", cfg.personalization_kind)
    return network, trajectory


def _network(cfg: configmod.RunConfig, args):
    """The configured network.  A discrete one refuses the --grid-count flag, as
    ``build_grid`` refuses an explicit grid, but not a config's count, which
    --dump-config always writes."""
    from . import config as configmod
    from .graph import ContinuousTemporalNetwork
    network = configmod.build_network(cfg)
    if args.grid_count is not None and not isinstance(network, ContinuousTemporalNetwork):
        raise InvalidInputError(configmod._OWN_INSTANTS)
    return network


def cmd_compute(args) -> int:
    cfg = _resolve(args)
    network, trajectory = _trajectory_for(cfg, _network(cfg, args))
    if cfg.output_format == "csv":
        rows = [f"{t},{node},{score!r}"
                for t, scores in zip(_fmts(trajectory.instants), trajectory.vectors.tolist())
                for node, score in enumerate(scores, start=1)]
        text = _csv_document("instant,node,score", rows, cfg.output_header)
    else:
        text = _json_document([
            {"instant": float(t), "scores": [float(s) for s in trajectory.vectors[k]]}
            for k, t in enumerate(trajectory.instants)])
    _write_text(cfg.output_path, text)
    solved = "direct solve" if trajectory.metadata["solver"] == "direct" else \
        f"power iterations <= {max(trajectory.metadata['iterations'])}"
    print(f"{len(trajectory.instants)} instants, n={trajectory.n}, {solved}, "
          f"residual <= {max(trajectory.metadata['residuals']):.3e}", file=sys.stderr)
    return 0


def cmd_converge(args) -> int:
    from . import config as configmod
    from .accumulate import truncate
    from .graph import ContinuousTemporalNetwork
    cfg = _resolve(args)
    if cfg.grid_start is not None or args.grid_count is not None:
        raise InvalidInputError("a convergence study's grids are its partitions "
                                "(--sizes); give no grid")
    network = configmod.build_network(cfg)
    if not isinstance(network, ContinuousTemporalNetwork):
        raise InvalidInputError("convergence studies need a continuous network")
    sizes = sorted({_int(part, "partition size") for part in args.sizes.split(",")})
    if any(size < 2 for size in sizes):
        raise InvalidInputError("partition sizes must be >= 2")
    results = []
    for size in sizes:
        truncated = truncate(network, size)
        _, discrete = _trajectory_for(cfg, truncated)
        _, continuous = _trajectory_for(cfg, network, truncated.instants)
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

    if cfg.output_format == "csv":
        rows = [f"{size},{t},{node},{err!r}"
                for size, instants, errors in results
                for t, row in zip(_fmts(instants), errors.tolist())
                for node, err in enumerate(row, start=1)]
        text = _csv_document("size,instant,node,abs_error", rows, cfg.output_header)
    else:
        text = _json_document([
            {"size": size, "max_error": float(errors.max()),
             "instants": [float(t) for t in instants],
             "errors": [[float(e) for e in row] for row in errors]}
            for size, instants, errors in results])
    _write_text(cfg.output_path, text)
    return 0


def cmd_localize(args) -> int:
    from . import config as configmod
    from .localization import bounds_trajectory
    cfg = _resolve(args)
    network = _network(cfg, args)
    if args.nodes.strip() == "all":
        nodes = None
    else:
        nodes = [_int(part, "node") - 1 for part in args.nodes.split(",")]
        if not all(0 <= node < network.n for node in nodes):
            raise InvalidInputError(f"node subset outside 1..{network.n}")
    bounds = bounds_trajectory(
        network, configmod.build_kernel(cfg), configmod.build_damping(cfg),
        nodes=nodes, grid=configmod.build_grid(cfg, network),
        quad=configmod.build_quadrature(cfg),
        dangling_dist=configmod.build_personalization(cfg),
        tol=cfg.solver_tol, threads=cfg.threads)
    if cfg.output_format == "csv":
        nodes = (bounds.nodes + 1).tolist()
        rows = [f"{t},{node},{lo!r},{hi!r}"
                for t, los, his in zip(_fmts(bounds.instants), bounds.lo.tolist(),
                                       bounds.hi.tolist())
                for node, lo, hi in zip(nodes, los, his)]
        text = _csv_document("instant,node,lo,hi", rows, cfg.output_header)
    else:
        text = _json_document([
            {"instant": float(t),
             "nodes": [int(node) + 1 for node in bounds.nodes],
             "lo": [float(x) for x in bounds.lo[k]],
             "hi": [float(x) for x in bounds.hi[k]]}
            for k, t in enumerate(bounds.instants)])
    _write_text(cfg.output_path, text)
    print(f"{len(bounds.instants)} instants, {len(bounds.nodes)} nodes bounded",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    from . import config as configmod
    from .ranking import compare_trajectories
    cfg_a = configmod.resolve_config(configmod.read_config(args.config_a),
                                     threads=args.threads)
    cfg_b = configmod.resolve_config(configmod.read_config(args.config_b),
                                     threads=args.threads)
    network, trajectory_a = _trajectory_for(cfg_a)
    _, trajectory_b = _trajectory_for(
        cfg_b, network if _network_source(cfg_b) == _network_source(cfg_a) else None)
    series = compare_trajectories(
        trajectory_a, trajectory_b,
        labels=(cfg_a.personalization_kind, cfg_b.personalization_kind))
    pair_label = f"{series.labels[0]} vs {series.labels[1]}"
    out_format = args.format or "csv"
    if out_format == "csv":
        rows = [f"{t},{tau},{pair_label}"
                for t, tau in zip(_fmts(series.instants), _fmts(series.taus))]
        text = _csv_document("instant,tau,pair_label", rows, not args.no_header)
    else:
        text = _json_document([
            {"instant": float(t), "tau": float(tau), "pair_label": pair_label}
            for t, tau in zip(series.instants, series.taus)])
    _write_text(args.output or "-", text)
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
