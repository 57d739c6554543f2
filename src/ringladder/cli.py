"""Command line front end.

Subcommands:
  gs         solve a single theta point and print its observables
  sweep      run a theta grid and emit CSV (stdout or --out)
  fm-oracle  closed-form block entropies of the uniform Sz = 0 state
  blocks     print the site sets of requested block geometries

Each subcommand declares only the flags it reads.  A flat key = value file
given with --config holds the same flags: the line 'key = value' reads as
'--key=value' placed right after the subcommand name, so the subcommand's
parser checks it like any flag, a key it lacks is rejected, and explicit
flags win.  Bad input, from the file or the command line, exits with
status 2 and a 'ringladder <cmd>: error:' line.
"""

from __future__ import annotations

import argparse
import sys

from .ferromagnet import fm_entropy, fm_entropy_asymptotic, fm_pair_concurrence
from .lattice import LadderSpec
from .sweep import (
    BlockSpec,
    SweepConfig,
    block_sites,
    csv_header,
    record_row,
    run_sweep,
    theta_grid,
    write_csv,
)

__all__ = ["main"]


def parse_blocks(text: str) -> tuple[BlockSpec, ...]:
    """Parse 'A:4,B:8' (a 'fam' prefix on the family letter is accepted)."""
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fam, sep, size = part.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"block {part!r} is not FAMILY:SIZE")
        fam = fam.strip()
        if fam.lower().startswith("fam"):
            fam = fam[3:]
        try:
            specs.append(BlockSpec(family=fam.upper(), l=int(size)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    if not specs:
        raise argparse.ArgumentTypeError("empty block list")
    return tuple(specs)


def read_config_file(path: str) -> list[str]:
    """Flat key = value file as flag tokens: each line becomes '--key=value'.

    '#' starts a comment; '_' in a key reads as '-'.  Apart from refusing a
    nested 'config', which keys exist and what their values may be is left
    to the subcommand's parser.
    """
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key = key.strip().replace("_", "-")
            if not sep or not key:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            if key == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot name another")
            tokens.append(f"--{key}={val.strip()}")
    return tokens


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringladder",
        description="Ladder ground states, entanglement sweeps and closed-form "
                    "checks for the ring-exchange model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a config key must name its flag exactly
    gs = sub.add_parser("gs", help="single ground-state point", allow_abbrev=False)
    sw = sub.add_parser("sweep", help="theta grid sweep, CSV output", allow_abbrev=False)
    fm = sub.add_parser("fm-oracle", help="closed-form uniform-state entropies",
                        allow_abbrev=False)
    bl = sub.add_parser("blocks", help="print block geometry site sets", allow_abbrev=False)

    # each subcommand declares exactly the flags it reads
    for p in (gs, sw, fm, bl):
        p.add_argument("--config", metavar="PATH", help="flat key = value option file")
        p.add_argument("--rungs", type=int, default=4, metavar="L", help="rung count")
    for p in (gs, sw, bl):
        p.add_argument("--bc", choices=("periodic", "open"), default="periodic")
    for p in (gs, sw, fm):
        p.add_argument("--out", metavar="PATH", help="CSV output path")
        p.add_argument("--blocks", type=parse_blocks, default=(),
                       metavar="FAM:L,...", help="block geometries, e.g. A:4,D:6")
    bl.add_argument("--blocks", type=parse_blocks, required=True,
                    metavar="FAM:L,...", help="block geometries, e.g. A:4,D:6")
    for p in (gs, sw):
        p.add_argument("--sector", type=int, default=0, metavar="TWOSZ",
                       help="2*Sz of the sector to solve in")
        p.add_argument("--seed", type=int, default=0)
    gs.add_argument("--theta", type=float, default=0.0, metavar="T",
                    help="theta in units of pi")
    sw.add_argument("--theta-min", type=float, default=-0.395, metavar="T")
    sw.add_argument("--theta-max", type=float, default=0.945, metavar="T")
    sw.add_argument("--theta-step", type=float, default=0.005, metavar="T")
    sw.add_argument("--workers", type=int, default=1,
                    help="parallel solves across grid points")
    return parser


def _cfg_from_args(args, thetas, workers=1) -> SweepConfig:
    return SweepConfig(
        L=args.rungs,
        thetas_over_pi=thetas,
        bc=args.bc,
        blocks=args.blocks,
        twoSz=args.sector,
        seed=args.seed,
        out=args.out,
        workers=workers,
    )


def cmd_gs(args) -> int:
    cfg = _cfg_from_args(args, (args.theta,))
    records = run_sweep(cfg)
    rec = records[0]
    for name, value in zip(csv_header(cfg.blocks), record_row(rec, cfg.blocks)):
        print(f"{name} = {value if value != '' else 'n/a'}")
    return 0


def cmd_sweep(args) -> int:
    thetas = theta_grid(args.theta_min, args.theta_max, args.theta_step)
    cfg = _cfg_from_args(args, thetas, args.workers)
    records = run_sweep(cfg)
    if cfg.out is None:
        write_csv(records, cfg.blocks, sys.stdout)
    return 0


def cmd_fm_oracle(args) -> int:
    N = 2 * args.rungs
    sizes = sorted({b.l for b in args.blocks}) or list(range(1, N // 2 + 1))
    lines = [f"N = {N}", f"fm_pair_concurrence = {fm_pair_concurrence(N):.12g}",
             "l,fm_entropy,fm_entropy_asymptotic"]
    for l in sizes:
        lines.append(
            f"{l},{fm_entropy(N, l):.12g},{fm_entropy_asymptotic(N, l):.12g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_blocks(args) -> int:
    spec = LadderSpec(L=args.rungs, bc=args.bc)
    for b in args.blocks:
        sites = block_sites(b.family, b.l, spec)
        pretty = ", ".join(f"(leg {s % 2 + 1}, rung {s // 2 + 1})" for s in sites)
        print(f"{b.family}:{b.l} sites {sites}  [{pretty}]")
    return 0


_COMMANDS = {
    "gs": cmd_gs,
    "sweep": cmd_sweep,
    "fm-oracle": cmd_fm_oracle,
    "blocks": cmd_blocks,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit status; bad input exits with 2."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not argv or argv[0] not in _COMMANDS:
        parser.parse_args(argv)  # help, or the usage error naming the subcommands
        parser.error("the subcommand must come first")
    command, rest = argv[0], argv[1:]
    # --config is found before the real parse, which would refuse a call whose
    # required flags (blocks --blocks) are in the file
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    probe.add_argument("--config")
    try:
        path = probe.parse_known_args(rest)[0].config
        if path is not None:
            rest = read_config_file(path) + rest
        args, extra = parser.parse_known_args([command, *rest])
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        return _COMMANDS[command](args)
    except (argparse.ArgumentError, OSError, ValueError) as exc:
        parser.exit(2, f"{parser.prog} {command}: error: {exc}\n")
