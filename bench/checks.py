"""Output checks for the benchmark workloads.

Every check appends a line to ``Report.problems`` instead of raising; an
operation with any problem counts as failed.  The indicator check is an
independent naive double sum over the reloaded MSR file on its own direction
grid, held to criterion 7's tolerance.  CSV values are parsed tolerating the
``np.float64(...)`` wrapper that ``IndicatorField.to_csv`` writes under numpy 2,
and strict ``x,y,value`` validity is counted separately.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from elastoscan.aperture import antipode
from elastoscan.forward import MsrFormatError, load_msr, synthesize_msr
from elastoscan.geometry import distance_to_boundary
from elastoscan.harness import parse_config

CRIT7_TOL = 1e-12            # |emitted - naive| / max(1, naive), criterion 7
# ||F - R(F)|| / ||F||: the Dirichlet discretization is reciprocal to rounding; the
# Neumann one only to quadrature error (2.8e-7 for the kite at n=256)
RECIPROCITY_TOL = {"dirichlet": 1e-12, "neumann": 1e-5}
NOISE_TOL = 1e-12            # realized ||noise|| / ||F|| against the header delta
POINTS_PER_FIELD = 6         # seeded sampling points checked per field, plus its argmax
_WRAP = "np.float64("


@dataclass
class Report:
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    csv_rows: int = 0
    csv_strict_rows: int = 0


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_tree(root: str) -> dict:
    """relpath -> sha256 of every file; a manifest contributes its file list only."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if name == "manifest.json":
                with open(path) as fh:
                    out[rel] = json.dumps(json.load(fh)["files"], sort_keys=True)
            else:
                out[rel] = sha256_file(path)
    return out


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs)


def _load(path: str, rep: Report):
    try:
        return load_msr(path)
    except (OSError, MsrFormatError) as exc:
        rep.problems.append(f"{os.path.basename(path)} does not reload: {exc}")
        return None


def reciprocity_defect(msr) -> float:
    """||F - R(F)|| / ||F|| with R the reciprocity map on the antipodal grid."""
    sig = antipode(np.arange(2 * msr.m), msr.m)

    def r(block):
        return block[np.ix_(sig, sig)].T

    refl = np.block([[r(msr.f_pp), r(msr.f_ps)], [r(msr.f_sp), r(msr.f_ss)]])
    full = msr.assembled()
    return float(np.linalg.norm(full - refl) / np.linalg.norm(full))


def naive_indicator(full: np.ndarray, m: int, medium, q, kind: str, z) -> float:
    """|w^2 sum_j sum_i conj(phi_j) F_ji phi_i| on theta_i = (i-1) pi / m."""
    theta = np.pi * np.arange(2 * m) / m
    c, s = np.cos(theta), np.sin(theta)
    zd = c * z[0] + s * z[1]
    phi_p = np.exp(-1j * medium.k_p * zd) * (c * q[0] + s * q[1])
    phi_s = np.exp(-1j * medium.k_s * zd) * (-s * q[0] + c * q[1])
    n = 2 * m
    if kind == "ff":
        phi, fmat = np.concatenate([phi_p, phi_s]), full
    elif kind == "pp":
        phi, fmat = phi_p, full[:n, :n]
    else:
        phi, fmat = phi_s, full[n:, n:]
    return float(abs((np.pi / m) ** 2 * np.sum(np.conj(phi)[:, None] * fmat * phi[None, :])))


def read_csv(path: str) -> tuple[np.ndarray, int]:
    """(rows, 3) floats and the count of rows in strict 'x,y,value' form."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        lines = fh.read().splitlines()
    if header != "x,y,value":
        raise ValueError(f"bad CSV header {header!r}")
    table = np.empty((len(lines), 3))
    strict = 0
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != 3:
            raise ValueError(f"row {i + 2} has {len(cells)} cells")
        plain = not any(c.startswith(_WRAP) for c in cells)
        table[i] = [float(c.removeprefix(_WRAP).removesuffix(")")) for c in cells]
        strict += plain
    return table, strict


def check_pgm(path: str, nx: int, ny: int) -> str | None:
    header = f"P5\n{nx} {ny}\n65535\n".encode()
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(header) or len(data) != len(header) + 2 * nx * ny:
        return f"{os.path.basename(path)}: header or size does not match a {nx}x{ny} grid"
    return None


def check_manifest(out: str, man: dict) -> list[str]:
    problems = []
    for entry in man["files"]:
        path = os.path.join(out, entry["path"])
        if not os.path.isfile(path):
            problems.append(f"manifest lists missing file {entry['path']}")
        elif (os.path.getsize(path) != entry["bytes"]
              or sha256_file(path) != entry["sha256"]):
            problems.append(f"{entry['path']} does not match its manifest sha256")
    return problems


def _known_mask(cfg) -> np.ndarray:
    """4m x 4m known-entry mask of the config's aperture, tiled over the four blocks."""
    n = 2 * cfg.m
    obs = np.zeros(n, bool)
    inc = np.zeros(n, bool)
    obs[list(cfg.observed.to_indices(cfg.m) if cfg.observed else range(n))] = True
    inc[list(cfg.incident.to_indices(cfg.m) if cfg.incident else range(n))] = True
    return np.tile(obs[:, None] & inc[None, :], (2, 2))


def _field_source(name: str, msrs: dict, known: np.ndarray):
    """Split '<label>_limit|_retr_<kind>.csv' and return (family, kind, matrix, msr)."""
    stem, kind = name[:-4].rsplit("_", 1)
    if stem.endswith("_limit"):
        family, msr = "limit", msrs.get(stem.removesuffix("_limit") + ".msr")
    elif stem.endswith("_retr"):
        family, msr = "retr", msrs.get(stem.removesuffix("_retr") + "_retrieved.msr")
    else:
        return None, kind, None, None
    if msr is None:
        return family, kind, None, None
    full = msr.assembled()
    return family, kind, (np.where(known, full, 0.0) if family == "limit" else full), msr


def check_experiment(out: str, seed: int, gates: bool = True) -> Report:
    """Manifest, PGM headers, MSR reload, naive indicator values, retrieval, quality."""
    rep = Report()
    with open(os.path.join(out, "manifest.json")) as fh:
        man = json.load(fh)
    rep.problems += check_manifest(out, man)
    if man["seed"] != seed:
        rep.problems.append(f"manifest seed {man['seed']} != {seed}")
    cfg = parse_config(man["config"])
    grid = cfg.sampling_grid()
    names = [e["path"] for e in man["files"]]
    msrs = {n: _load(os.path.join(out, n), rep) for n in names if n.endswith(".msr")}
    known = _known_mask(cfg)
    scene = cfg.scene_object()
    rng = np.random.default_rng(seed)
    worst = 0.0
    loc = {}
    for name in names:
        path = os.path.join(out, name)
        if name.endswith(".pgm"):
            bad = check_pgm(path, grid.nx, grid.ny)
            if bad:
                rep.problems.append(bad)
            continue
        if not name.endswith(".csv"):
            continue
        family, kind, fmat, msr = _field_source(name, msrs, known)
        if fmat is None:
            rep.problems.append(f"{name}: no limited or retrieved MSR to check it against")
            continue
        try:
            table, strict = read_csv(path)
        except ValueError as exc:
            rep.problems.append(f"{name}: {exc}")
            continue
        rep.csv_rows += len(table)
        rep.csv_strict_rows += strict
        vals = table[:, 2]
        if not np.array_equal(table[:, :2], grid.points()):
            rep.problems.append(f"{name}: sampling points do not match the grid")
            continue
        if not (np.all(np.isfinite(vals)) and vals.min() >= 0):
            rep.problems.append(f"{name}: non-finite or negative indicator values")
            continue
        top = int(np.argmax(vals))
        picks = [top, *rng.choice(len(vals), size=min(POINTS_PER_FIELD, len(vals)),
                                  replace=False)]
        for idx in picks:
            ref = naive_indicator(fmat, msr.m, msr.medium, cfg.q, kind, table[idx, :2])
            err = abs(vals[idx] - ref) / max(1.0, ref)
            worst = max(worst, err)
            if not err <= CRIT7_TOL:
                rep.problems.append(f"{name}: value at {table[idx, :2]} is off the naive "
                                    f"double sum by {err:.2e}")
                break
        loc.setdefault(family, {})[kind] = float(
            distance_to_boundary(scene, table[top, :2][None, :])[0])
    rep.values["crit7_max_rel"] = worst
    # the retrieved image is the one a user looks at; criterion 8's gate is stated
    # for full-data images only, so the distances are reported and not gated
    for kind, dist in sorted(loc.get("retr", {}).items()):
        rep.values[f"loc_err.{kind}"] = dist
    retrieved = [n for n in msrs if n.endswith("_retrieved.msr")]
    if retrieved:
        _check_retrieval(rep, cfg, msrs[retrieved[0].replace("_retrieved", "")],
                         msrs[retrieved[0]], known, gates)
    return rep


def _check_retrieval(rep: Report, cfg, noisy, retr, known: np.ndarray, gates: bool) -> None:
    if noisy is None or retr is None:
        return
    data, out = noisy.assembled(), retr.assembled()
    if not np.array_equal(out[known], data[known]):
        rep.problems.append("retrieval changed measured entries")
    clean = synthesize_msr(cfg.scene_object(), cfg.medium(), cfg.m, cfg.n).assembled()
    norm = np.linalg.norm(clean)
    err = float(np.linalg.norm(out - clean) / norm)
    zero_fill = float(np.linalg.norm(np.where(known, data, 0.0) - clean) / norm)
    rep.values["retrieval_err"] = err
    rep.values["zero_fill_err"] = zero_fill
    if gates and not err < zero_fill:
        rep.problems.append(f"retrieval error {err:.3f} is not below zero fill {zero_fill:.3f}")


def check_forward(out: str, seed: int, gates: bool = True) -> Report:
    """Per preset directory: both MSR files reload, clean data is reciprocal, noise is delta."""
    rep = Report()
    subs = sorted(d for d in os.listdir(out) if os.path.isdir(os.path.join(out, d)))
    if not subs:
        rep.problems.append("no synthesized data")
    for sub in subs:
        clean = _load(os.path.join(out, sub, "data.msr"), rep)
        noisy = _load(os.path.join(out, sub, "noisy.msr"), rep)
        if clean is None or noisy is None:
            continue
        defect = reciprocity_defect(clean)
        tol = max(RECIPROCITY_TOL[bc] for bc in clean.bc.split(","))
        rep.values[f"reciprocity.{sub}"] = defect
        if not defect <= tol:
            rep.problems.append(f"{sub}: reciprocity defect {defect:.2e} > {tol}")
        full = clean.assembled()
        level = float(np.linalg.norm(noisy.assembled() - full) / np.linalg.norm(full))
        rep.values[f"noise_level.{sub}"] = level
        if not abs(level - noisy.delta) <= NOISE_TOL or noisy.seed != seed:
            rep.problems.append(f"{sub}: realized noise {level!r} (seed {noisy.seed}) is not "
                                f"delta={noisy.delta!r} at seed {seed}")
    return rep
