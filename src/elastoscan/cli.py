"""Command-line interface: a thin shell over the harness.

Subcommands: synth, noise, indicate, retrieve, experiment, presets.  Each one
turns its flags into the harness's value types (parse_grid, parse_q,
parse_arcs), runs the harness's pipeline stages and writes through its
emitter.  The emitter formats and writes on one writer thread, which the
command joins before it returns: every artifact lands atomically and in the
order it was submitted, and a failure on either thread removes every file of
the command.  Only experiment hashes its artifacts and writes manifest.json;
its <label>.msr_write_s and <tag>.write_s timings are measured by the writer,
and emit_wait_s is how long the pipeline waited for the writer.
synth and experiment take the experiment from --config or --preset (with
--small); noise, indicate and retrieve take their data from --msr and
everything else from their own flags.  --seed belongs to synth, noise and
experiment: noise and experiment draw noise with it, and synth accepts it so
that one seed can be passed to every stage, although clean synthesis uses none.

Exit codes, mapped from exceptions in main() alone:

    0  success
    2  usage error (an unknown flag or subcommand, a flag the subcommand does not
       take), ConfigError, or any other ValueError (bad config, flag or argument),
       or MemoryError (the input needs more memory than is available, such as a
       huge grid or m)
    3  NumericError or numpy.linalg.LinAlgError (singular system, degenerate field)
    4  OSError or MsrFormatError (unreadable or unwritable path, malformed MSR file)
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .forward import MsrFormatError, NumericError, add_noise, load_msr, synthesize_msr
from .harness import (ENV_OUT, PRESET_BUILDERS, SMALL_GRID_PTS, SMALL_M, SMALL_N, ConfigError,
                      ExperimentConfig, MaskSpec, _Emitter, build_preset, check_limited,
                      forms_of, parse_arcs, parse_config, parse_grid, parse_q, preset_names,
                      restrict, retrieve_msr, run_preset, run_recorded)
from .indicators import IndicatorKind, SamplingGrid, fields_from_forms

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _add_source(p: argparse.ArgumentParser) -> None:
    """The experiment flags, for the subcommands that synthesize data: synth, experiment."""
    p.add_argument("--config", help="config file (see harness grammar)")
    p.add_argument("--preset", help="preset name (see 'presets')")
    p.add_argument("--small", action="store_true",
                   help=f"desk-scale preset variant (m={SMALL_M}, n={SMALL_N}, "
                        f"{SMALL_GRID_PTS}x{SMALL_GRID_PTS} grid)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--quiet", action="store_true", help="suppress progress logging")


def _add_seed(p: argparse.ArgumentParser, help_text: str) -> None:
    """--seed, for the subcommands that read it: synth, noise, experiment."""
    p.add_argument("--seed", type=int, default=None, help=help_text)


def _resolve_out(args) -> str:
    if args.out:
        return args.out
    if ENV_OUT in os.environ:
        return os.environ[ENV_OUT]
    return "out"


def _load_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = parse_config(text)
    elif args.preset:
        cfg = build_preset(args.preset, small=args.small)
    else:
        raise ConfigError("a --config file or --preset name is required")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _arc_masks(args) -> tuple[MaskSpec | None, MaskSpec | None]:
    return tuple(None if spec is None else MaskSpec(arcs=parse_arcs(spec))
                 for spec in (args.observed, args.incident))


def _write_msr(args, name: str, msr) -> int:
    with _Emitter(_resolve_out(args)) as emitter:
        emitter.write_msr(name, msr)
    if not args.quiet:
        print(f"wrote {emitter.path(name)}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    return _write_msr(args, "data.msr",
                      synthesize_msr(cfg.scene_object(), cfg.medium(), cfg.m, cfg.n))


def cmd_noise(args) -> int:
    msr = load_msr(args.msr)
    return _write_msr(args, "noisy.msr",
                      add_noise(msr, args.delta, args.seed if args.seed is not None else 1))


def cmd_indicate(args) -> int:
    grid = SamplingGrid(*parse_grid(args.grid))
    q = parse_q(args.q)
    kinds = ([IndicatorKind(args.kind)] if args.kind != "all"
             else [IndicatorKind.SS, IndicatorKind.PP, IndicatorKind.FF])
    observed, incident = _arc_masks(args)
    data = restrict(load_msr(args.msr), observed, incident)
    fields = fields_from_forms(forms_of(data, grid, kinds, q), data.m, grid, kinds)
    with _Emitter(_resolve_out(args)) as emitter:
        emitter.write_fields("indicator", fields)
    if not args.quiet:
        for kind in fields:
            base = emitter.path(f"indicator_{kind.value}")
            print(f"wrote {base}.csv {base}.pgm")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    observed, incident = _arc_masks(args)
    msr = load_msr(args.msr)
    check_limited(observed, incident, msr.m)
    return _write_msr(args, "retrieved.msr", retrieve_msr(restrict(msr, observed, incident)))


def cmd_experiment(args) -> int:
    cfg = replace(_load_config(args), out=_resolve_out(args))
    if args.preset:
        manifest = run_preset(args.preset, cfg)
    else:
        manifest = run_recorded(cfg)
    if not args.quiet:
        print(f"wrote {len(manifest.files)} artifacts to {cfg.out}")
    return EXIT_OK


def cmd_presets(args) -> int:
    for name in preset_names():
        print(f"{name:18s} {PRESET_BUILDERS[name].__doc__}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="elastoscan",
                                 description="Direct sampling for 2D inverse elastic scattering")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a clean MSR matrix")
    _add_source(p)
    _add_common(p)
    _add_seed(p, "override the config seed; accepted so that one seed can be passed to "
                 "every stage, but clean synthesis uses no seed")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("noise", help="perturb an MSR file")
    _add_common(p)
    _add_seed(p, "noise seed (default 1)")
    p.add_argument("--msr", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(fn=cmd_noise)

    p = sub.add_parser("indicate", help="evaluate indicators from an MSR file")
    _add_common(p)
    p.add_argument("--msr", required=True)
    p.add_argument("--kind", default="all", choices=["ss", "pp", "ff", "all"])
    p.add_argument("--grid", default="-6 6 -6 6 321 321")
    p.add_argument("--q", default="1 0")
    p.add_argument("--observed", default=None, help="arcs like '[0,1.5708)'")
    p.add_argument("--incident", default=None, help="arcs like '[0,1.5708)'")
    p.set_defaults(fn=cmd_indicate)

    p = sub.add_parser("retrieve", help="complete a masked MSR by reciprocity fill "
                                        "(entries it cannot reach are 0)")
    _add_common(p)
    p.add_argument("--msr", required=True)
    p.add_argument("--observed", default=None)
    p.add_argument("--incident", default=None)
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("experiment", help="run a preset or config end to end")
    _add_source(p)
    _add_common(p)
    _add_seed(p, "override the config seed")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("presets", help="list available presets")
    p.set_defaults(fn=cmd_presets)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:          # argparse has printed the usage error, or --help
        return exc.code
    logging.basicConfig(level=logging.WARNING if getattr(args, "quiet", False)
                        else logging.INFO)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, MsrFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:          # after LinAlgError and MsrFormatError, its subclasses
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("invalid input: the input needs more memory than is available", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
