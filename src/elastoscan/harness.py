"""Experiment harness: config grammar, presets, pipeline runner, artifact emission.

Config files are flat ``key = value`` text with ``#`` comments; unknown keys
are rejected and every default is echoed back by :func:`emit_config`.  The
canonical grammar (all keys optional except none; defaults in parentheses):

    scene    = kite@(0.0,0.0)*1.0 + peanut@(3.0,-3.0)*1.0     (kite@(0,0)*1)
    bc       = dirichlet | neumann                            (dirichlet)
    lambda   = 1.0
    mu       = 1.0
    omega    = 25.132741228718345                             (8 pi)
    m        = 256          # 2m incident/observation directions
    n        = 512          # quadrature nodes per boundary component
    grid     = -6.0 6.0 -6.0 6.0 321 321                      (x0 x1 y0 y1 nx ny)
    delta    = 0.0          # relative noise level
    seed     = 1            # >= 0
    kinds    = ss pp ff     # at least one
    q        = 1.0 0.0      # polarization (unit vector)
    observed = full | arcs [a,b) ... | indices i1 i2 ...      (full, 1-based indices)
    incident = full | arcs [a,b) ... | indices i1 i2 ...      (full)
    retrieve = off | reciprocity                              (off; needs observed/incident)
    out      = out

An arc [a,b) is in radians and runs counterclockwise from a to b taken mod 2 pi,
end exclusive; an arc whose ends coincide mod 2 pi, such as [0,0) or
[0,6.283185307179586), is the full circle.  retrieve = reciprocity needs
observed x incident to leave out some direction pair: a config whose specs
select every direction is rejected (exit 2), since retrieval would change
nothing.

Pipeline per config: synthesize MSR -> add noise -> (mask -> reciprocity fill,
zeros where reciprocity cannot reach) -> indicators -> emit CSV (raw values),
PGM (squared, normalized) and a JSON manifest listing every artifact with its
sha256.  An observed or incident spec becomes a boolean vector over the 2m
directions (MaskSpec.directions), and limited data are the masked operator
with unknown entries 0.  The stages (restrict, forms_of, retrieve_msr), the
flag parsers (parse_grid, parse_q, parse_arcs) and the one artifact writer
(_Emitter) are shared with the CLI subcommands.

Emission runs behind the pipeline on one writer thread, so an artifact is
formatted and written while the next stage computes.  Artifacts land
atomically (a temporary name, then os.replace) and in submission order, and
the manifest lists them in that order.  A failure on either thread removes
every file of the command.  The manifest timings <label>.msr_write_s and
<tag>.write_s are the writer's own time (formatting, writing, hashing);
emit_wait_s is the time the pipeline spent waiting for the writer to finish
before the manifest was written.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import queue
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .aperture import MaskedMSR, apply_mask, reciprocity_fill, retrieved_forms
from .elastic import Medium
from .forward import MSRMatrix, NumericError, add_noise, save_msr, synthesize_msr
from .geometry import (BoundaryCondition, BoundaryCurve, BoundaryKind, Scene, boundary_quadrature,
                       scene_from_string)
from .indicators import (IndicatorField, IndicatorKind, SamplingGrid, fields_from_forms,
                         indicator_forms, skeleton_summary)

ENV_OUT = "ELASTOSCAN_OUT"

DEFAULT_OMEGA = 8.0 * np.pi
DEFAULT_GRID = (-6.0, 6.0, -6.0, 6.0, 321, 321)
# m=64 would put the direction grid below the aliasing bound 2m >= k_s (|z|max + R)
# for the default omega = 8 pi on [-6,6]^2, contaminating the outer field
SMALL_M, SMALL_N, SMALL_GRID_PTS = 128, 256, 161

class ConfigError(Exception):
    """Base class for configuration problems (CLI exit code 2)."""

class ConfigSyntaxError(ConfigError):
    pass

class ConfigKeyError(ConfigError):
    pass

class ConfigValueError(ConfigError):
    pass

@dataclass(frozen=True)
class MaskSpec:
    """Either radian arcs [a, b) or an explicit 1-based index list."""

    arcs: tuple[tuple[float, float], ...] | None = None
    indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.arcs is None) == (self.indices is None):
            raise ValueError("a mask takes exactly one of arcs and indices")

    def directions(self, m: int) -> np.ndarray:
        """The selected directions of the 2m-direction grid, a boolean vector.

        Arcs are (start, end) in radians, end exclusive and wrap-aware; an arc
        whose ends coincide mod 2 pi is the full circle.
        """
        sel = np.zeros(2 * m, dtype=bool)
        if self.indices is not None:
            if not 1 <= min(self.indices) <= max(self.indices) <= 2 * m:
                raise ValueError(f"mask indices must be in 1..{2 * m}")
            sel[np.subtract(self.indices, 1)] = True
            return sel
        theta = np.pi * np.arange(2 * m) / m
        for a, b in self.arcs:
            span = (b - a) % (2 * np.pi)
            if span == 0.0:
                span = 2 * np.pi
            sel |= ((theta - a) % (2 * np.pi)) < span - 1e-12
            sel |= np.isclose((theta - a) % (2 * np.pi), 0.0)
        if not sel.any():
            raise ValueError(f"arcs {self.arcs} select none of the {2 * m} directions")
        return sel

    def to_indices(self, m: int) -> np.ndarray:
        """0-based indices of the selected directions (bench/checks.py reads them)."""
        return np.flatnonzero(self.directions(m))

@dataclass(frozen=True)
class ExperimentConfig:
    scene: tuple[tuple[BoundaryKind, tuple[float, float], float], ...] = (
        (BoundaryKind.KITE, (0.0, 0.0), 1.0),)
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET
    lam: float = 1.0
    mu: float = 1.0
    omega: float = DEFAULT_OMEGA
    m: int = 256
    n: int = 512
    grid: tuple[float, float, float, float, int, int] = DEFAULT_GRID
    delta: float = 0.0
    seed: int = 1
    kinds: tuple[IndicatorKind, ...] = (IndicatorKind.SS, IndicatorKind.PP, IndicatorKind.FF)
    q: tuple[float, float] = (1.0, 0.0)
    observed: MaskSpec | None = None
    incident: MaskSpec | None = None
    retrieve: bool = False
    out: str = "out"

    def scene_object(self) -> Scene:
        return Scene(tuple((BoundaryCurve(kind, center, rho), self.bc)
                           for kind, center, rho in self.scene))

    def medium(self) -> Medium:
        return Medium(self.lam, self.mu, self.omega)

    def sampling_grid(self) -> SamplingGrid:
        return SamplingGrid(*self.grid)

    def validate(self) -> None:
        if self.m < 4:
            raise ConfigValueError(f"need m >= 4, got {self.m}")
        if self.n < 64:
            raise ConfigValueError(f"need n >= 64, got {self.n}")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ConfigValueError(f"need a finite delta >= 0, got {self.delta}")
        if self.seed < 0:
            raise ConfigValueError(f"need seed >= 0, got {self.seed}")
        if not self.kinds:
            raise ConfigValueError("kinds needs at least one of ss, pp, ff")
        _check_polarization(self.q)
        try:
            scene = self.scene_object()
            k_s = self.medium().k_s
            self.sampling_grid()
            for spec in (self.observed, self.incident):
                if spec is not None:
                    spec.directions(self.m)
            lengths = [boundary_quadrature(curve, self.n).weights.sum()
                       for curve, _ in scene.components]
        except ValueError as exc:
            raise ConfigValueError(str(exc)) from None
        for (curve, _), length in zip(scene.components, lengths):
            # fewer than 2 nodes per shear wavelength 2 pi / k_s: the data would be
            # finite but meaningless
            if not self.n >= k_s * length / np.pi:
                need = 2.0 * np.ceil(k_s * length / (2.0 * np.pi))
                raise ConfigValueError(
                    f"n = {self.n} gives fewer than 2 nodes per shear wavelength on "
                    f"{curve.describe()} (boundary length {length:.4g}, k_s = {k_s:.4g}); "
                    f"need n >= {need:.6g}")
        if self.retrieve:
            check_limited(self.observed, self.incident, self.m)

def check_limited(observed: MaskSpec | None, incident: MaskSpec | None, m: int) -> None:
    """Raise ConfigValueError unless observed x incident leaves out some direction pair.

    Retrieval completes limited data; on data measured for every pair it would
    change nothing.
    """
    if all(spec is None or spec.directions(m).all() for spec in (observed, incident)):
        raise ConfigValueError(
            "retrieve needs limited data: observed x incident selects every direction pair "
            "(set observed and/or incident; an arc whose ends coincide mod 2 pi is the full "
            "circle)")

def _parse_scene(value: str):
    scene = scene_from_string(value)
    return tuple((c.kind, c.center, c.rho) for c, _ in scene.components)

def parse_grid(value: str) -> tuple[float, float, float, float, int, int]:
    """'x0 x1 y0 y1 nx ny' -> the grid tuple of a valid SamplingGrid."""
    parts = value.split()
    if len(parts) != 6:
        raise ConfigSyntaxError(f"grid needs 'x0 x1 y0 y1 nx ny', got {value!r}")
    try:
        grid = (float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
                int(parts[4]), int(parts[5]))
        SamplingGrid(*grid)
    except ValueError as exc:
        raise ConfigValueError(f"bad grid {value!r}: {exc}") from None
    return grid

def _check_polarization(q) -> None:
    # written so that a NaN or infinite component fails it too
    if not abs(np.hypot(*q) - 1.0) <= 1e-12:
        raise ConfigValueError(f"polarization must be a unit 2-vector, got {q}")

def parse_q(value: str) -> tuple[float, float]:
    """'qx qy' -> a finite unit polarization vector."""
    parts = value.split()
    if len(parts) != 2:
        raise ConfigSyntaxError(f"polarization needs 'qx qy', got {value!r}")
    try:
        q = (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigValueError(f"bad polarization {value!r}") from None
    _check_polarization(q)
    return q

def parse_arcs(value: str) -> tuple[tuple[float, float], ...]:
    """'[a,b) [c,d) ...' (radians, end exclusive) -> a nonempty tuple of finite (a, b)."""
    arcs = []
    for tok in value.split():
        if not (tok.startswith("[") and tok.endswith(")")):
            raise ConfigSyntaxError(f"arc must look like [a,b), got {tok!r}")
        a_s, _, b_s = tok[1:-1].partition(",")
        try:
            arcs.append((float(a_s), float(b_s)))
        except ValueError:
            raise ConfigSyntaxError(f"bad arc bounds {tok!r}") from None
        if not np.isfinite(arcs[-1]).all():
            raise ConfigValueError(f"arc bounds must be finite, got {tok!r}")
    if not arcs:
        raise ConfigValueError("empty arc list")
    return tuple(arcs)

def _parse_mask(value: str) -> MaskSpec | None:
    if value == "full":
        return None
    if value.startswith("indices"):
        try:
            idx = tuple(int(tok) for tok in value[len("indices"):].split())
        except ValueError:
            raise ConfigSyntaxError(f"bad index list {value!r}") from None
        if not idx or min(idx) < 1:
            raise ConfigValueError("indices are 1-based and nonempty")
        return MaskSpec(indices=idx)
    if value.startswith("arcs"):
        return MaskSpec(arcs=parse_arcs(value[len("arcs"):]))
    raise ConfigSyntaxError(f"expected full | arcs ... | indices ..., got {value!r}")

def _parse_retrieve(value: str) -> bool:
    if value not in ("off", "reciprocity"):
        raise ConfigValueError(f"retrieve must be off | reciprocity, got {value!r}")
    return value == "reciprocity"

# config key -> (ExperimentConfig field, value parser)
_CONFIG_FIELDS = {
    "scene": ("scene", _parse_scene),
    "bc": ("bc", BoundaryCondition),
    "lambda": ("lam", float),
    "mu": ("mu", float),
    "omega": ("omega", float),
    "m": ("m", int),
    "n": ("n", int),
    "grid": ("grid", parse_grid),
    "delta": ("delta", float),
    "seed": ("seed", int),
    "kinds": ("kinds", lambda value: tuple(IndicatorKind(tok) for tok in value.split())),
    "q": ("q", parse_q),
    "observed": ("observed", _parse_mask),
    "incident": ("incident", _parse_mask),
    "retrieve": ("retrieve", _parse_retrieve),
    "out": ("out", str),
}

def parse_config(text: str) -> ExperimentConfig:
    """Parse the canonical config grammar; strict about keys, values, invariants."""
    cfg = ExperimentConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigSyntaxError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigKeyError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigSyntaxError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parse = _CONFIG_FIELDS[key]
        try:
            cfg = replace(cfg, **{attr: parse(value.strip())})
        except ConfigError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        except (ValueError, KeyError) as exc:
            raise ConfigValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    cfg.validate()
    return cfg

def _emit_mask(spec: MaskSpec | None) -> str:
    if spec is None:
        return "full"
    if spec.indices is not None:
        return "indices " + " ".join(str(i) for i in spec.indices)
    return "arcs " + " ".join(f"[{float(a)!r},{float(b)!r})" for a, b in spec.arcs)

def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(emit(cfg)) == cfg."""
    scene_s = " + ".join(f"{kind.value}@({float(c[0])!r},{float(c[1])!r})*{float(rho)!r}"
                         for kind, c, rho in cfg.scene)
    lines = [
        f"scene = {scene_s}",
        f"bc = {cfg.bc.value}",
        f"lambda = {float(cfg.lam)!r}",
        f"mu = {float(cfg.mu)!r}",
        f"omega = {float(cfg.omega)!r}",
        f"m = {cfg.m}",
        f"n = {cfg.n}",
        "grid = " + " ".join(repr(float(v)) if i < 4 else str(v) for i, v in enumerate(cfg.grid)),
        f"delta = {float(cfg.delta)!r}",
        f"seed = {cfg.seed}",
        "kinds = " + " ".join(k.value for k in cfg.kinds),
        f"q = {float(cfg.q[0])!r} {float(cfg.q[1])!r}",
        f"observed = {_emit_mask(cfg.observed)}",
        f"incident = {_emit_mask(cfg.incident)}",
        f"retrieve = {'reciprocity' if cfg.retrieve else 'off'}",
        f"out = {cfg.out}",
    ]
    return "\n".join(lines) + "\n"

# ---------------------------------------------------------------------------
# Heatmap rendering
# ---------------------------------------------------------------------------
def render_heatmap(fld: IndicatorField) -> bytes:
    """16-bit binary PGM (P5) of the squared, max-normalized field.

    Image row 0 is the top of the y-range; the gray map is linear.
    """
    vmax = float(fld.values.max())
    if not vmax > 0 or not np.isfinite(vmax):
        raise ValueError("cannot render a degenerate (all-zero or non-finite) field")
    norm = (fld.values / vmax) ** 2
    pix = np.flipud(np.round(norm * 65535.0).astype(np.uint16))
    header = f"P5\n{fld.grid.nx} {fld.grid.ny}\n65535\n".encode()
    return header + pix.astype(">u2").tobytes()

# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------
def _scene1(kind: BoundaryKind, center=(0.0, 0.0), rho=1.0):
    return ((kind, center, rho),)

PRESET_BUILDERS = {}

def _preset(name, doc):
    def deco(fn):
        fn.__doc__ = doc
        PRESET_BUILDERS[name] = fn
        return fn
    return deco

@_preset("dirichlet-kite", "rigid kite at the origin, 30% noise")
def _p_dkite():
    return ExperimentConfig(scene=_scene1(BoundaryKind.KITE), delta=0.3)

@_preset("dirichlet-pear", "rigid pear at the origin, 30% noise")
def _p_dpear():
    return ExperimentConfig(scene=_scene1(BoundaryKind.PEAR), delta=0.3)

@_preset("neumann-kite", "kite cavity at the origin, 30% noise")
def _p_nkite():
    return ExperimentConfig(scene=_scene1(BoundaryKind.KITE),
                            bc=BoundaryCondition.NEUMANN, delta=0.3)

@_preset("neumann-pear", "pear cavity at the origin, 30% noise")
def _p_npear():
    return ExperimentConfig(scene=_scene1(BoundaryKind.PEAR),
                            bc=BoundaryCondition.NEUMANN, delta=0.3)

@_preset("multiple", "rigid kite at (-3,3) + peanut at (3,-3), 30% noise, 641x641 grid")
def _p_multiple():
    return ExperimentConfig(
        scene=((BoundaryKind.KITE, (-3.0, 3.0), 1.0), (BoundaryKind.PEANUT, (3.0, -3.0), 1.0)),
        delta=0.3, grid=(-6.0, 6.0, -6.0, 6.0, 641, 641))

@_preset("multiscalar", "big rigid pear (rho=2) + mini disk (rho=0.1) at (4,4), 30% noise")
def _p_multiscalar():
    return ExperimentConfig(
        scene=((BoundaryKind.PEAR, (0.0, 0.0), 2.0), (BoundaryKind.CIRCLE, (4.0, 4.0), 0.1)),
        delta=0.3)

@_preset("resolutionlimit", "big disk (rho=3) at (-2,0) + kite at (2.75,0), 30% noise, 641x641 grid")
def _p_resolution():
    return ExperimentConfig(
        scene=((BoundaryKind.CIRCLE, (-2.0, 0.0), 3.0), (BoundaryKind.KITE, (2.75, 0.0), 1.0)),
        delta=0.3, grid=(-6.0, 6.0, -6.0, 6.0, 641, 641))

@_preset("limited-quarters", "kite, noise-free, four quarter observation arcs")
def _p_quarters():
    return ExperimentConfig(scene=_scene1(BoundaryKind.KITE), delta=0.0)

@_preset("limited-retrieval",
         "kite, omega=4pi, 10% noise, observed [0,pi/2), reciprocity fill")
def _p_retrieval():
    return ExperimentConfig(
        scene=_scene1(BoundaryKind.KITE), omega=4.0 * np.pi, delta=0.1,
        observed=MaskSpec(arcs=((0.0, np.pi / 2.0),)), retrieve=True)

@_preset("few-incident", "kite, 10% noise, 1/2/4/8/16 incident shear directions, SS indicator")
def _p_few():
    # q = (0,1): the default (1,0) polarization is degenerate for shear
    # incidence along the x axis (q . d_perp = 0 kills the test function)
    return ExperimentConfig(scene=_scene1(BoundaryKind.KITE), delta=0.1,
                            kinds=(IndicatorKind.SS,), q=(0.0, 1.0))

FEW_INCIDENT_COUNTS = (1, 2, 4, 8, 16)
QUARTER_ARCS = ((0.0, np.pi / 2), (np.pi / 2, np.pi), (np.pi, 3 * np.pi / 2),
                (3 * np.pi / 2, 2 * np.pi))

def preset_names() -> list[str]:
    return sorted(PRESET_BUILDERS)

def build_preset(name: str, small: bool = False) -> ExperimentConfig:
    if name not in PRESET_BUILDERS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    cfg = PRESET_BUILDERS[name]()
    if small:
        g = cfg.grid
        cfg = replace(cfg, m=SMALL_M, n=SMALL_N,
                      grid=(g[0], g[1], g[2], g[3], SMALL_GRID_PTS, SMALL_GRID_PTS))
    return cfg

# ---------------------------------------------------------------------------
# Pipeline stages (shared by run_experiment and the CLI subcommands)
# ---------------------------------------------------------------------------
def restrict(msr: MSRMatrix, observed: MaskSpec | None, incident: MaskSpec | None
             ) -> MSRMatrix | MaskedMSR:
    """The data seen through an aperture: msr itself for full data, else its masked form.

    A spec of None selects every direction.
    """
    if observed is None and incident is None:
        return msr
    every = np.ones(2 * msr.m, dtype=bool)
    return apply_mask(msr, observed.directions(msr.m) if observed else every,
                      incident.directions(msr.m) if incident else every)

def forms_of(data: MSRMatrix | MaskedMSR, grid: SamplingGrid, kinds, q) -> dict[str, np.ndarray]:
    """Complex indicator forms on the grid (indicators.indicator_forms) of full data, or
    of the known entries of limited data; fields_from_forms takes their modulus."""
    if isinstance(data, MaskedMSR):
        return indicator_forms(data.data, data.m, data.base.medium, grid, kinds, q)
    return indicator_forms(data.assembled(), data.m, data.medium, grid, kinds, q)

def retrieve_msr(masked: MaskedMSR) -> MSRMatrix:
    """The data completed by reciprocity fill; entries it cannot reach stay 0.

    Measured entries are kept verbatim.
    """
    return replace(masked.base, full=reciprocity_fill(masked).data, retrieval="reciprocity")

# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------
@dataclass
class RunManifest:
    config_text: str
    seed: int
    timings: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    env_overrides: dict = field(default_factory=dict)
    skeletons: dict = field(default_factory=dict)   # field label -> skeleton_summary

    def add_file(self, path: str) -> None:
        # hashed a block at a time: a whole MSR/1 file would add its size to the
        # peak memory of the indicator pass it overlaps
        digest, size = hashlib.sha256(), 0
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
                size += len(block)
        self.files.append({"path": os.path.basename(path), "sha256": digest.hexdigest(),
                           "bytes": size})

    @contextlib.contextmanager
    def span(self, key: str):
        """Record the wall time of the with-block under timings[key] (seconds)."""
        t0 = time.perf_counter()
        yield
        self.timings[key] = round(time.perf_counter() - t0, 3)

    def to_json(self) -> str:
        return json.dumps({"config": self.config_text, "seed": self.seed,
                           "timings": self.timings, "files": self.files,
                           "env_overrides": self.env_overrides, "skeletons": self.skeletons},
                          indent=2, sort_keys=True)

class _Emitter:
    """The only writer of artifacts, with one writer thread behind it.

    Each write call queues a job and returns at once; the writer thread,
    started by the first job, runs the jobs one at a time in submission order.
    A job formats the artifact (save_msr, IndicatorField.to_csv,
    render_heatmap), writes it under a temporary name in the output directory,
    moves it into place with os.replace and, with a manifest, hashes it into
    the manifest's file list.  So artifacts land atomically and in submission
    order, manifest entries included, and a copy runs after the file it
    copies.  A job given a timing key adds the writer's own seconds for it to
    that manifest timing.  write_manifest and the end of the with-block wait
    for the queue to empty and join the writer; the manifest's emit_wait_s is
    the total time spent waiting there.

    Used as a context manager, a failure on either thread cancels the jobs not
    yet run, joins the writer, then removes every file the emitter wrote,
    temporary ones included.  An exception of the with-block propagates as it
    is; a writer exception is re-raised on the calling thread, at the next
    write call or at the end of the block.
    """

    def __init__(self, outdir: str, manifest: RunManifest | None = None):
        self.outdir = outdir
        self.manifest = manifest
        self.written: list[str] = []
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._writer: threading.Thread | None = None
        self._failure: BaseException | None = None
        self._busy: dict[str, float] = {}     # timing key -> writer seconds
        self._waited = 0.0
        os.makedirs(outdir, exist_ok=True)

    def __enter__(self) -> "_Emitter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self._failure is None:
            self._failure = exc               # the writer skips the jobs left
        self._join()
        if self._failure is not None:
            self.cleanup()
            if exc is None:
                raise self._failure

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def _run(self) -> None:
        while (job := self._jobs.get()) is not None:
            if self._failure is None:
                try:
                    job()
                except BaseException as exc:     # re-raised on the calling thread
                    self._failure = exc

    def _join(self) -> None:
        """Let the writer run the queued jobs, then join it."""
        if self._writer is None:
            return
        t0 = time.perf_counter()
        self._jobs.put(None)
        self._writer.join()
        self._writer = None
        self._waited += time.perf_counter() - t0
        if self.manifest is not None:
            self.manifest.timings["emit_wait_s"] = round(self._waited, 3)

    def _commit(self, name: str, write, hashed: bool = True, timing: str | None = None) -> None:
        """Queue the artifact name, written by write(tmp_path); return at once."""
        if self._failure is not None:
            raise self._failure
        if self._writer is None:
            writer = threading.Thread(target=self._run, name="elastoscan-writer")
            writer.start()
            self._writer = writer
        self._jobs.put(functools.partial(self._land, name, write, hashed, timing))

    def _land(self, name: str, write, hashed: bool, timing: str | None) -> None:
        """write(tmp_path) the artifact, rename it to name and hash it."""
        t0 = time.perf_counter()
        tmp, final = self.path(f".{name}.tmp"), self.path(name)
        self.written.append(tmp)
        write(tmp)
        os.replace(tmp, final)
        self.written[-1] = final
        if self.manifest is not None:
            if hashed:
                self.manifest.add_file(final)
            if timing is not None:
                self._busy[timing] = self._busy.get(timing, 0.0) + time.perf_counter() - t0
                self.manifest.timings[timing] = round(self._busy[timing], 3)

    def write_bytes(self, path: str, data: bytes) -> None:
        """The writer's raw write of data to the file path (PGM images, the manifest)."""
        Path(path).write_bytes(data)

    def write_msr(self, name: str, msr: MSRMatrix, timing: str | None = None) -> None:
        self._commit(name, lambda tmp: save_msr(msr, tmp), timing=timing)

    def copy(self, name: str, source: str, timing: str | None = None) -> None:
        """Write the bytes of the artifact source, written or queued before, under name."""
        self._commit(name, lambda tmp: shutil.copyfile(self.path(source), tmp), timing=timing)

    def write_field(self, label: str, fld: IndicatorField, timing: str | None = None) -> None:
        def heatmap(tmp: str) -> None:
            try:
                image = render_heatmap(fld)
            except ValueError as exc:
                raise NumericError(str(exc)) from None
            self.write_bytes(tmp, image)

        self._commit(f"{label}.csv", fld.to_csv, timing=timing)
        self._commit(f"{label}.pgm", heatmap, timing=timing)

    def write_fields(self, label: str, fields: dict, timing: str | None = None) -> None:
        for kind, fld in fields.items():
            self.write_field(f"{label}_{kind.value}", fld, timing)

    def write_manifest(self) -> None:
        """Wait for every artifact, then write manifest.json (not hashed) on this thread."""
        self._join()
        if self._failure is not None:
            raise self._failure
        data = self.manifest.to_json().encode()
        self._land("manifest.json", lambda tmp: self.write_bytes(tmp, data), False, None)

    def cleanup(self) -> None:
        for p in self.written:
            with contextlib.suppress(OSError):
                os.remove(p)

# ---------------------------------------------------------------------------
# Pipeline runner
# ---------------------------------------------------------------------------
def _forward_key(config: ExperimentConfig) -> tuple:
    """Every field the noisy MSR depends on; configs equal here share one forward solve."""
    return (config.scene, config.bc, config.lam, config.mu, config.omega, config.m, config.n,
            config.delta, config.seed)

def run_experiment(config: ExperimentConfig, label: str = "run", outdir: str | None = None,
                   emitter: _Emitter | None = None, solved: dict | None = None) -> RunManifest:
    """Synthesize, perturb, (mask/fill/retrieve), indicate, and emit artifacts.

    Deterministic for a fixed config: the only randomness is the seeded noise.
    Writes through emitter, whose owner cleans up on failure; without one, a
    fresh emitter into outdir (default config.out) removes this run's files
    on failure.  Each artifact is queued to the emitter's writer thread as soon
    as it is computed, so the noisy MSR is written during the first indicator
    pass, and the limited fields and the retrieved MSR during retrieval and the
    retrieved pass; <label>.msr_write_s and <tag>.write_s are the writer's time
    for them.  The retrieved fields come from the limited pass's complex forms
    and one pass over the doubly known entries (aperture.retrieved_forms), not
    from a pass over the retrieved MSR; that shorter pass is what overlaps the
    writing of the limited fields and the retrieved MSR.  Writes no
    manifest.json.  solved maps _forward_key to a noisy
    MSR this emitter has written and the name of its file; a config found there
    copies that file to <label>.msr instead of solving again, and a config solved
    here is added.
    """
    config.validate()
    if emitter is None:
        manifest = RunManifest(config_text=emit_config(config), seed=config.seed)
        with _Emitter(outdir or config.out, manifest) as own:
            return run_experiment(config, label, emitter=own, solved=solved)
    span = emitter.manifest.span
    solved = {} if solved is None else solved
    key = _forward_key(config)
    if key in solved:
        msr, source = solved[key]
        emitter.copy(f"{label}.msr", source, f"{label}.msr_write_s")
    else:
        with span(f"{label}.synth_s"):
            msr = synthesize_msr(config.scene_object(), config.medium(), config.m, config.n,
                                 lambda stage: span(f"{label}.{stage}"))
        if config.delta > 0:
            with span(f"{label}.noise_s"):
                msr = add_noise(msr, config.delta, config.seed)
        emitter.write_msr(f"{label}.msr", msr, f"{label}.msr_write_s")
        solved[key] = (msr, f"{label}.msr")

    grid, medium = config.sampling_grid(), config.medium()

    def emit_fields(tag: str, evaluate, *data) -> dict[str, np.ndarray]:
        """The forms evaluate(*data, grid, kinds, q), whose fields are emitted under tag."""
        with span(f"{tag}.eval_s"):
            forms = evaluate(*data, grid, config.kinds, config.q)
            fields = fields_from_forms(forms, config.m, grid, config.kinds, config.q)
        emitter.write_fields(tag, fields, f"{tag}.write_s")
        emitter.manifest.skeletons[tag] = skeleton_summary(grid, medium, config.kinds)
        return forms

    data = restrict(msr, config.observed, config.incident)
    if isinstance(data, MaskedMSR):
        limited = emit_fields(f"{label}_limit", forms_of, data)
        if config.retrieve:
            with span(f"{label}_retr.retrieve_s"):
                retrieved = retrieve_msr(data)
            emitter.write_msr(f"{label}_retrieved.msr", retrieved, f"{label}_retr.msr_write_s")
            emit_fields(f"{label}_retr", retrieved_forms, data, limited)
    else:
        emit_fields(label, forms_of, data)
    return emitter.manifest

def run_recorded(config: ExperimentConfig, variants=None) -> RunManifest:
    """Run (label, config) variants (default: config itself as "run") into config.out.

    Every variant writes through one emitter, which then writes manifest.json;
    a failure anywhere removes every file of the run, manifest included.
    Variants that differ only in their aperture (limited-quarters, few-incident)
    share one forward solve and write the same MSR/1 bytes under their names.
    """
    manifest = RunManifest(config_text=emit_config(config), seed=config.seed,
                           env_overrides={k: os.environ[k] for k in (ENV_OUT,)
                                          if k in os.environ})
    with _Emitter(config.out, manifest) as emitter:
        solved = {}
        for label, sub in variants or [("run", config)]:
            run_experiment(sub, label=label, emitter=emitter, solved=solved)
        emitter.write_manifest()
    return manifest

def _preset_variants(name: str, cfg: ExperimentConfig) -> list[tuple[str, ExperimentConfig]]:
    if name == "limited-quarters":
        return [(f"{name}_q{idx}", replace(cfg, observed=MaskSpec(arcs=(arc,))))
                for idx, arc in enumerate(QUARTER_ARCS, start=1)]
    if name == "few-incident":
        return [(f"{name}_n{count}", replace(cfg, incident=MaskSpec(
                    indices=tuple(1 + j * ((2 * cfg.m) // count) for j in range(count)))))
                for count in FEW_INCIDENT_COUNTS]
    return [(name, cfg)]

def run_preset(name: str, cfg: ExperimentConfig) -> RunManifest:
    """Run cfg, the built config of the named preset, with the preset's variants,
    into cfg.out and write manifest.json."""
    return run_recorded(cfg, _preset_variants(name, cfg))
