"""Command-line interface.

Subcommands: synth, noise, indicate, retrieve, experiment, presets.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .aperture import ApertureMask, apply_mask, limited_indicator, reciprocity_fill, tikhonov_retrieve
from .forward import MsrFormatError, NumericError, add_noise, load_msr, save_msr, synthesize_msr
from .harness import (
    ENV_OUT,
    ConfigError,
    ExperimentConfig,
    build_preset,
    parse_config,
    preset_names,
    PRESET_BUILDERS,
    SMALL_GRID_PTS,
    SMALL_M,
    SMALL_N,
    render_heatmap,
    run_preset,
    run_experiment,
)
from .indicators import IndicatorKind, SamplingGrid, indicator_fields

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (see harness grammar)")
    p.add_argument("--preset", help="preset name (see 'presets')")
    p.add_argument("--small", action="store_true",
                   help=f"desk-scale preset variant (m={SMALL_M}, n={SMALL_N}, "
                        f"{SMALL_GRID_PTS}x{SMALL_GRID_PTS} grid)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--quiet", action="store_true", help="suppress progress logging")


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
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    return cfg


def _parse_arcs(spec: str | None):
    if spec is None:
        return None
    arcs = []
    for tok in spec.split():
        if not (tok.startswith("[") and tok.endswith(")")):
            raise ConfigError(f"arc must look like [a,b), got {tok!r}")
        a, _, b = tok[1:-1].partition(",")
        arcs.append((float(a), float(b)))
    return tuple(arcs)


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args)
    os.makedirs(out, exist_ok=True)
    msr = synthesize_msr(cfg.scene_object(), cfg.medium(), cfg.m, cfg.n)
    path = os.path.join(out, "data.msr")
    save_msr(msr, path)
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_noise(args) -> int:
    msr = load_msr(args.msr)
    noisy = add_noise(msr, args.delta, args.seed if args.seed is not None else 1)
    out = _resolve_out(args)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "noisy.msr")
    save_msr(noisy, path)
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


def _grid_from_arg(spec: str) -> SamplingGrid:
    parts = spec.split()
    if len(parts) != 6:
        raise ConfigError(f"grid needs 'x0 x1 y0 y1 nx ny', got {spec!r}")
    return SamplingGrid(float(parts[0]), float(parts[1]), float(parts[2]),
                        float(parts[3]), int(parts[4]), int(parts[5]))


def cmd_indicate(args) -> int:
    msr = load_msr(args.msr)
    grid = _grid_from_arg(args.grid)
    q = tuple(float(v) for v in args.q.split())
    if len(q) != 2 or abs(np.hypot(*q) - 1.0) > 1e-12:
        raise ConfigError(f"polarization must be a unit 2-vector, got {args.q!r}")
    kinds = ([IndicatorKind(args.kind)] if args.kind != "all"
             else [IndicatorKind.SS, IndicatorKind.PP, IndicatorKind.FF])
    obs = _parse_arcs(args.observed)
    inc = _parse_arcs(args.incident)
    if obs is None and inc is None:
        fields = indicator_fields(msr.assembled(), msr.m, msr.medium, grid, kinds, q)
    else:
        masked = apply_mask(msr, ApertureMask.from_arcs(msr.m, obs, inc))
        fields = limited_indicator(masked, grid, kinds, q)
    try:
        images = {kind: render_heatmap(fld) for kind, fld in fields.items()}
    except ValueError as exc:
        raise NumericError(str(exc)) from None
    out = _resolve_out(args)
    os.makedirs(out, exist_ok=True)
    for kind, fld in fields.items():
        base = os.path.join(out, f"indicator_{kind.value}")
        fld.to_csv(base + ".csv")
        with open(base + ".pgm", "wb") as fh:
            fh.write(images[kind])
        if not args.quiet:
            print(f"wrote {base}.csv {base}.pgm")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    msr = load_msr(args.msr)
    obs = _parse_arcs(args.observed)
    inc = _parse_arcs(args.incident)
    if obs is None and inc is None:
        raise ConfigError("retrieve needs --observed and/or --incident arcs")
    mask = ApertureMask.from_arcs(msr.m, obs, inc)
    masked = apply_mask(msr, mask)
    filled = reciprocity_fill(masked)
    retrieved = tikhonov_retrieve(filled, args.radius, args.nb, args.alpha)
    out = _resolve_out(args)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "retrieved.msr")
    save_msr(retrieved, path)
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    out = _resolve_out(args)
    if args.preset:
        manifest = run_preset(args.preset, out, small=args.small, seed=args.seed)
    else:
        cfg = _load_config(args)
        from dataclasses import replace

        cfg = replace(cfg, out=out)
        manifest = run_experiment(cfg, label="run", outdir=out)
        with open(os.path.join(out, "manifest.json"), "w") as fh:
            fh.write(manifest.to_json())
    if not args.quiet:
        print(f"wrote {len(manifest.files)} artifacts to {out}")
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
    _add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("noise", help="perturb an MSR file")
    _add_common(p)
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

    p = sub.add_parser("retrieve", help="reciprocity-fill + Tikhonov-retrieve a masked MSR")
    _add_common(p)
    p.add_argument("--msr", required=True)
    p.add_argument("--observed", default=None)
    p.add_argument("--incident", default=None)
    p.add_argument("--radius", type=float, default=5.0)
    p.add_argument("--nb", type=int, default=256)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("experiment", help="run a preset or config end to end")
    _add_common(p)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("presets", help="list available presets")
    p.set_defaults(fn=cmd_presets)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if getattr(args, "quiet", False)
                        else logging.INFO)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, MsrFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
