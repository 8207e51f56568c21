"""The benchmark's workloads: the CLI calls each one makes.

At bench scale the calls name presets with ``--small``; at tiny scale (the
benchmark's own tests and the warm-up) they pass a config file holding the
same preset at m=8, n=64, omega=pi and a 9x9 grid.  Every call gets ``--seed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from elastoscan.harness import build_preset, emit_config

import checks

TINY_M, TINY_N, TINY_GRID = 8, 64, 9
TINY_OMEGA = np.pi           # low enough for n=64 to resolve the Neumann traction kernel


def _source(preset: str, tiny: bool, workdir: str) -> list[str]:
    if not tiny:
        return ["--preset", preset, "--small"]
    cfg = build_preset(preset)
    g = cfg.grid
    cfg = replace(cfg, m=TINY_M, n=TINY_N, omega=TINY_OMEGA,
                  grid=(g[0], g[1], g[2], g[3], TINY_GRID, TINY_GRID))
    path = os.path.join(workdir, f"{preset}.cfg")
    with open(path, "w") as fh:
        fh.write(emit_config(cfg))
    return ["--config", path]


def _experiment(preset: str):
    def calls(out: str, seed: int, tiny: bool, workdir: str) -> list[list[str]]:
        return [["experiment", *_source(preset, tiny, workdir),
                 "--out", out, "--seed", str(seed), "--quiet"]]
    return calls


FORWARD_PRESETS = ("neumann-kite", "multiple")


def _forward_io(out: str, seed: int, tiny: bool, workdir: str) -> list[list[str]]:
    calls = []
    for preset in FORWARD_PRESETS:
        sub = os.path.join(out, preset)
        calls.append(["synth", *_source(preset, tiny, workdir),
                      "--out", sub, "--seed", str(seed), "--quiet"])
        calls.append(["noise", "--msr", os.path.join(sub, "data.msr"),
                      "--delta", repr(build_preset(preset).delta),
                      "--out", sub, "--seed", str(seed), "--quiet"])
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                      # the preset whose build set-up time is measured
    calls: Callable                  # (out, seed, tiny, workdir) -> list of argv
    check: Callable                  # (out, seed, gates) -> checks.Report


WORKLOADS = {
    w.name: w for w in (
        Workload("forward-io", FORWARD_PRESETS[0], _forward_io, checks.check_forward),
        Workload("limited-retrieval-small", "limited-retrieval",
                 _experiment("limited-retrieval"), checks.check_experiment),
    )
}
