import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastoscan.cli import main as cli_main
from elastoscan.geometry import (BoundaryCondition, BoundaryCurve, BoundaryKind,
                                 boundary_quadrature)
from elastoscan.harness import (
    ConfigError,
    ConfigKeyError,
    ConfigSyntaxError,
    ConfigValueError,
    ExperimentConfig,
    MaskSpec,
    SMALL_GRID_PTS,
    SMALL_M,
    SMALL_N,
    build_preset,
    emit_config,
    parse_arcs,
    parse_config,
    parse_grid,
    parse_q,
    preset_names,
    render_heatmap,
    run_experiment,
    run_preset,
    run_recorded,
)
from elastoscan.indicators import (SKELETON_MARGIN, IndicatorField, IndicatorKind,
                                   SamplingGrid)

# the kite at m=8, n=64, omega=pi: the data set of the bad-input table below
TINY_KITE = """
scene = kite@(0.0,0.0)*1.0
m = 8
n = 64
omega = 3.141592653589793
grid = -3 3 -3 3 9 9
delta = 0.1
"""

TINY_CONFIG = """
scene = circle@(0.0,0.0)*1.0
bc = dirichlet
m = 8
n = 128
grid = -3 3 -3 3 11 11
delta = 0.1
seed = 5
kinds = ss
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("scene = kite\nbc = dirichlet\n")
        assert cfg.omega == pytest.approx(8 * np.pi)
        assert cfg.m == 256 and cfg.n == 512
        assert cfg.grid == (-6.0, 6.0, -6.0, 6.0, 321, 321)
        assert cfg.delta == 0.0
        assert cfg.kinds == (IndicatorKind.SS, IndicatorKind.PP, IndicatorKind.FF)
        assert cfg.q == (1.0, 0.0)

    def test_negative_rho_is_value_error(self):
        with pytest.raises(ConfigValueError, match="line 1"):
            parse_config("scene = kite@(0.0,0.0)*-1.0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigKeyError, match="line 2"):
            parse_config("scene = kite\nbogus = 3\n")

    def test_syntax_error_has_line(self):
        with pytest.raises(ConfigSyntaxError, match="line 3"):
            parse_config("scene = kite\nbc = dirichlet\nnot a key value\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigSyntaxError, match="duplicate"):
            parse_config("m = 8\nm = 16\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigValueError, match="omega"):
            parse_config("omega = fast\n")

    def test_error_kinds_are_distinct(self):
        kinds = {ConfigSyntaxError, ConfigKeyError, ConfigValueError}
        assert all(issubclass(k, ConfigError) for k in kinds)
        assert len(kinds) == 3

    def test_round_trip_default(self):
        cfg = ExperimentConfig()
        assert parse_config(emit_config(cfg)) == cfg

    def test_round_trip_rich(self):
        cfg = ExperimentConfig(
            scene=((BoundaryKind.PEAR, (0.5, -1.25), 2.0),
                   (BoundaryKind.CIRCLE, (4.0, 4.0), 0.1)),
            bc=BoundaryCondition.NEUMANN,
            omega=4 * np.pi, m=32, n=128, delta=0.1, seed=9,
            kinds=(IndicatorKind.SS,), q=(0.0, 1.0),
            observed=MaskSpec(arcs=((0.0, np.pi / 2),)),
            incident=MaskSpec(indices=(1, 5, 9)),
            retrieve=True,
            out="elsewhere")
        assert parse_config(emit_config(cfg)) == cfg

    def test_round_trip_numpy_scalars(self):
        """Every float field given as a numpy scalar emits the text of the Python
        float, and parses back to an equal config."""
        f = np.float64
        plain = ExperimentConfig(
            scene=((BoundaryKind.PEAR, (0.5, -1.25), 2.0),),
            lam=2.0, mu=1.5, omega=4 * np.pi, grid=(-3.0, 3.0, -2.5, 2.5, 11, 9),
            delta=0.1, q=(0.6, 0.8), observed=MaskSpec(arcs=((0.0, np.pi / 2),)))
        numpy_ = replace(
            plain, scene=((BoundaryKind.PEAR, (f(0.5), f(-1.25)), f(2.0)),),
            lam=f(2.0), mu=f(1.5), omega=f(4 * np.pi),
            grid=(f(-3.0), f(3.0), f(-2.5), f(2.5), np.int64(11), np.int64(9)),
            delta=f(0.1), q=(f(0.6), f(0.8)), observed=MaskSpec(arcs=((f(0.0), f(np.pi / 2)),)))
        text = emit_config(numpy_)
        assert text == emit_config(plain)
        assert "np." not in text
        assert parse_config(text) == numpy_

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# hello\n\nscene = kite  # trailing\n")
        assert cfg.scene[0][0] is BoundaryKind.KITE

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_delta_rejected(self, value):
        with pytest.raises(ConfigValueError, match="delta"):
            parse_config(f"delta = {value}\n")

    @pytest.mark.parametrize("value", ["nan 0", "0 nan", "inf 0", "0.6 0.6"])
    def test_non_unit_or_non_finite_q_rejected(self, value):
        with pytest.raises(ConfigValueError, match="line 1.*polarization"):
            parse_config(f"q = {value}\n")

    def test_mask_index_beyond_grid_rejected(self):
        # indices are 1-based: 16 is the last of the 2m = 16 directions
        parse_config("m = 8\nobserved = indices 16\n")
        for index in (17, 99):
            with pytest.raises(ConfigValueError, match=r"in 1\.\.16"):
                parse_config(f"m = 8\nobserved = indices {index}\n")

    @pytest.mark.parametrize("aperture", ["", "observed = full\nincident = full\n",
                                          "observed = arcs [0,0)\n",
                                          "observed = arcs [1,1) [2,3)\n"
                                          "incident = arcs [0,6.283185307179586)\n"])
    def test_retrieve_on_full_data_rejected(self, aperture):
        with pytest.raises(ConfigValueError, match="retrieve needs limited data"):
            parse_config(aperture + "retrieve = reciprocity\n")

    @pytest.mark.parametrize("line", ["omega = inf", "mu = inf", "lambda = inf",
                                      "grid = -6 inf -6 6 9 9"])
    def test_infinite_medium_or_grid_rejected(self, line):
        with pytest.raises(ConfigValueError, match="finite"):
            parse_config(line + "\n")

    @pytest.mark.parametrize("value", ["1e160", "1e-300"])
    def test_omega_squared_out_of_range_rejected(self, value):
        # the kernels divide by omega^2: it may not overflow or vanish
        with pytest.raises(ConfigValueError, match="omega"):
            parse_config(f"omega = {value}\n")

    # each of these used to pass the parser and be caught after the forward solve, if at all
    @pytest.mark.parametrize("text, match", [
        ("kinds =\n", "kinds"),
        ("seed = -1\n", "seed"),
        # R=/nB=/alpha= tokens: the grammar has no ball extrapolation
        ("observed = arcs [0,1.57)\nretrieve = R=5.0 nB=64 alpha=auto\n",
         "off \\| reciprocity"),
    ])
    def test_rejected_before_synthesis(self, text, match):
        with pytest.raises(ConfigValueError, match=match):
            parse_config(text)

    def test_under_resolved_component_rejected_with_the_n_needed(self):
        # the unit kite at n = 64: reject below 2 nodes per shear wavelength, i.e.
        # n < k_s L / pi with L the sum of the component's quadrature weights
        length = boundary_quadrature(BoundaryCurve(BoundaryKind.KITE, (0.0, 0.0), 1.0),
                                     64).weights.sum()
        limit = float(64 * np.pi / length)    # omega = k_s at mu = 1
        parse_config(f"scene = kite\nn = 64\nomega = {limit * (1 - 1e-9)!r}\n")
        with pytest.raises(ConfigValueError, match="2 nodes per shear wavelength"):
            parse_config(f"scene = kite\nn = 64\nomega = {limit * (1 + 1e-9)!r}\n")
        with pytest.raises(ConfigValueError, match=r"kite.*need n >= (\d+)$") as info:
            parse_config("scene = kite + circle@(4.0,4.0)*0.5\nn = 64\nomega = 40\n")
        need = int(re.search(r"need n >= (\d+)$", str(info.value)).group(1))
        assert need % 2 == 0 and need >= 40 * length / np.pi
        parse_config(f"scene = kite + circle@(4.0,4.0)*0.5\nn = {need}\nomega = 40\n")
        with pytest.raises(ConfigValueError, match="need n >= 2.96793e"):
            parse_config("scene = kite\nn = 64\nomega = 1e150\n")


class TestSharedParsers:
    def test_grid(self):
        assert parse_grid("-3 3 -2 2 9 5") == (-3.0, 3.0, -2.0, 2.0, 9, 5)
        with pytest.raises(ConfigSyntaxError):
            parse_grid("-3 3 -2 2 9")
        with pytest.raises(ConfigValueError, match="x1 > x0"):
            parse_grid("1 0 0 1 5 5")
        with pytest.raises(ConfigValueError):
            parse_grid("-3 3 -2 2 9 5.5")
        # finite ends whose steps overflow to inf and NaN, or whose points repeat
        with pytest.raises(ConfigValueError, match="x axis is not finite and strictly"):
            parse_grid("-1e308 1e308 -1 1 5 5")
        with pytest.raises(ConfigValueError, match="x axis is not finite and strictly"):
            parse_grid("0 5e-324 0 1 5 5")
        with pytest.raises(ConfigValueError, match="y axis is not finite and strictly"):
            parse_grid("0 1 0 5e-324 5 5")

    def test_q(self):
        assert parse_q("0 1") == (0.0, 1.0)
        with pytest.raises(ConfigSyntaxError):
            parse_q("1")
        with pytest.raises(ConfigValueError):
            parse_q("a b")
        with pytest.raises(ConfigValueError, match="unit"):
            parse_q("nan 0")

    def test_arcs(self):
        assert parse_arcs("[0,1.5) [3,4.5)") == ((0.0, 1.5), (3.0, 4.5))
        with pytest.raises(ConfigSyntaxError):
            parse_arcs("[0,x)")
        with pytest.raises(ConfigSyntaxError):
            parse_arcs("(0,1)")
        with pytest.raises(ConfigValueError, match="empty"):
            parse_arcs("  ")
        for spec, arc in (("[0,inf)", "[0,inf)"), ("[nan,1)", "[nan,1)"),
                          ("[0,1) [-inf,2)", "[-inf,2)")):
            with pytest.raises(ConfigValueError, match=re.escape(f"finite, got '{arc}'")):
                parse_arcs(spec)


class TestPresetTable:
    def test_all_presets_build(self):
        for name in preset_names():
            cfg = build_preset(name)
            cfg.validate()

    def test_paper_parameter_table(self):
        expect = {
            "dirichlet-kite": dict(scene=((BoundaryKind.KITE, (0.0, 0.0), 1.0),),
                                   bc=BoundaryCondition.DIRICHLET, delta=0.3),
            "dirichlet-pear": dict(scene=((BoundaryKind.PEAR, (0.0, 0.0), 1.0),),
                                   bc=BoundaryCondition.DIRICHLET, delta=0.3),
            "neumann-kite": dict(scene=((BoundaryKind.KITE, (0.0, 0.0), 1.0),),
                                 bc=BoundaryCondition.NEUMANN, delta=0.3),
            "neumann-pear": dict(scene=((BoundaryKind.PEAR, (0.0, 0.0), 1.0),),
                                 bc=BoundaryCondition.NEUMANN, delta=0.3),
            "multiple": dict(scene=((BoundaryKind.KITE, (-3.0, 3.0), 1.0),
                                    (BoundaryKind.PEANUT, (3.0, -3.0), 1.0)),
                             grid=(-6.0, 6.0, -6.0, 6.0, 641, 641), delta=0.3),
            "multiscalar": dict(scene=((BoundaryKind.PEAR, (0.0, 0.0), 2.0),
                                       (BoundaryKind.CIRCLE, (4.0, 4.0), 0.1)),
                                delta=0.3),
            "resolutionlimit": dict(scene=((BoundaryKind.CIRCLE, (-2.0, 0.0), 3.0),
                                           (BoundaryKind.KITE, (2.75, 0.0), 1.0)),
                                    grid=(-6.0, 6.0, -6.0, 6.0, 641, 641), delta=0.3),
            "limited-quarters": dict(delta=0.0),
            "limited-retrieval": dict(omega=4 * np.pi, delta=0.1,
                                      retrieve=True),
            "few-incident": dict(delta=0.1, kinds=(IndicatorKind.SS,), q=(0.0, 1.0)),
        }
        for name, fields in expect.items():
            cfg = build_preset(name)
            assert cfg.m == 256 and cfg.n == 512
            assert cfg.lam == 1.0 and cfg.mu == 1.0
            if "omega" not in fields:
                assert cfg.omega == pytest.approx(8 * np.pi)
            for key, val in fields.items():
                got = getattr(cfg, key)
                assert got == val or got == pytest.approx(val), (name, key, got)

    def test_small_switch(self):
        cfg = build_preset("multiple", small=True)
        assert cfg.m == SMALL_M and cfg.n == SMALL_N
        assert cfg.grid[4] == SMALL_GRID_PTS and cfg.grid[5] == SMALL_GRID_PTS

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="available"):
            build_preset("mystery")


class TestRenderHeatmap:
    def _field(self, values):
        ny, nx = values.shape
        return IndicatorField(SamplingGrid(-1, 1, -1, 1, nx, ny), values,
                              IndicatorKind.SS, (1.0, 0.0))

    @staticmethod
    def _parse_pgm(data):
        magic, dims, maxval, rest = data.split(b"\n", 3)
        w, h = map(int, dims.split())
        assert magic == b"P5" and int(maxval) == 65535
        pix = np.frombuffer(rest, dtype=">u2").reshape(h, w)
        return pix

    def test_constant_field_uniform_image(self):
        data = render_heatmap(self._field(np.full((4, 6), 3.3)))
        pix = self._parse_pgm(data)
        assert pix.shape == (4, 6)
        assert np.all(pix == 65535)

    def test_argmax_pixel_after_y_flip(self):
        vals = np.zeros((5, 7))
        vals[1, 4] = 2.0          # iy=1, ix=4
        vals += 0.1
        data = render_heatmap(self._field(vals))
        pix = self._parse_pgm(data)
        row, col = np.unravel_index(np.argmax(pix), pix.shape)
        assert (row, col) == (5 - 1 - 1, 4)

    def test_degenerate_field_rejected(self):
        with pytest.raises(ValueError):
            render_heatmap(self._field(np.zeros((3, 3))))


class TestRunExperiment:
    def test_deterministic_artifacts(self, tmp_path):
        cfg = parse_config(TINY_CONFIG)
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_experiment(cfg, label="tiny", outdir=str(out))
            digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]
        assert any(name.endswith(".msr") for name in digests[0])

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        cfg = parse_config(TINY_CONFIG)
        import elastoscan.harness as hz

        def boom(*a, **k):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(hz, "render_heatmap", boom)
        out = tmp_path / "broken"
        with pytest.raises(RuntimeError):
            run_experiment(cfg, label="tiny", outdir=str(out))
        assert list(out.iterdir()) == []

    def test_manifest_lists_every_artifact(self, tmp_path):
        cfg = parse_config(TINY_CONFIG)
        out = tmp_path / "m"
        manifest = run_experiment(cfg, label="tiny", outdir=str(out))
        listed = {f["path"]: f["sha256"] for f in manifest.files}
        on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert listed == on_disk

    def test_synthesis_sub_spans_add_up_to_at_most_synth_s(self, tmp_path):
        manifest = run_experiment(parse_config(TINY_CONFIG), label="tiny",
                                  outdir=str(tmp_path / "s"))
        stages = [manifest.timings[f"tiny.{k}_s"]
                  for k in ("assemble", "factorize", "solve", "farfield")]
        # each timing is rounded to 1 ms: five roundings of at most 0.5 ms each
        assert min(stages) >= 0
        assert sum(stages) <= manifest.timings["tiny.synth_s"] + 5 * 0.0005

    def test_mask_and_retrieval_outputs(self, tmp_path):
        text = TINY_CONFIG + "observed = arcs [0.0,1.5707963267948966)\nretrieve = reciprocity\n"
        cfg = parse_config(text)
        out = tmp_path / "r"
        manifest = run_experiment(cfg, label="lim", outdir=str(out))
        names = {p.name for p in out.iterdir()}
        assert "lim_limit_ss.csv" in names
        assert "lim_retr_ss.csv" in names
        assert "lim_retrieved.msr" in names
        assert set(manifest.skeletons) == {"lim_limit", "lim_retr"}
        assert set(manifest.timings) == {
            "lim.synth_s", "lim.assemble_s", "lim.factorize_s", "lim.solve_s", "lim.farfield_s",
            "lim.noise_s", "lim.msr_write_s",
            "lim_limit.eval_s", "lim_limit.write_s",
            "lim_retr.retrieve_s", "lim_retr.msr_write_s", "lim_retr.eval_s", "lim_retr.write_s",
            "emit_wait_s"}
        assert all(t >= 0 for t in manifest.timings.values())
        for summary in manifest.skeletons.values():
            assert (summary["nx"], summary["ny"]) == (11, 11)
            # kinds = ss: the pass used the one band of the ss block
            assert list(summary["bands"]) == ["ss"]
            ranks = summary["bands"]["ss"]
            assert ranks["band"] == 2.0 * cfg.medium().k_s
            assert 1 <= ranks["x_rank"] <= 11 and 1 <= ranks["y_rank"] <= 11
            assert summary["margin"] == SKELETON_MARGIN


class TestRunPresetSmall:
    def test_multiscalar_small_emits_three_fields(self, tmp_path):
        out = tmp_path / "ms"
        cfg = replace(build_preset("multiscalar", small=True), out=str(out))
        manifest = run_preset("multiscalar", cfg)
        names = {p.name for p in out.iterdir()}
        for kind in ("ss", "pp", "ff"):
            assert f"multiscalar_{kind}.csv" in names
            assert f"multiscalar_{kind}.pgm" in names
        assert "multiscalar.msr" in names
        assert "manifest.json" in names
        data = json.loads((out / "manifest.json").read_text())
        assert {f["path"] for f in data["files"]} == names - {"manifest.json"}


class TestCli:
    def _write_cfg(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY_CONFIG)
        return str(path)

    def test_import_leaves_scipy_signal_out(self):
        # scipy.signal adds 0.6-1.1 s to a 0.4-0.6 s start-up (2-core x86_64, scipy 1.17)
        code = ("import sys, elastoscan.cli; "
                "print(sorted(n for n in sys.modules if n.split('.')[:2] == ['scipy', 'signal']))")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.strip() == "[]"

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        run = [sys.executable, "-m", "elastoscan"]
        done = subprocess.run(run + ["presets"], capture_output=True, text=True, env=env,
                              cwd=tmp_path)
        assert done.returncode == 0 and "dirichlet-kite" in done.stdout
        done = subprocess.run(run + ["presets", "--no-such-flag"], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert done.returncode == 2 and "--no-such-flag" in done.stderr

    def test_synth_writes_msr(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        assert cli_main(["synth", "--config", cfg, "--out", out, "--quiet"]) == 0
        assert os.path.exists(os.path.join(out, "data.msr"))
        first = open(os.path.join(out, "data.msr")).readline()
        assert first.strip() == "#version=MSR/1"

    def test_synth_with_preset(self, tmp_path):
        out = str(tmp_path / "p")
        assert cli_main(["synth", "--preset", "dirichlet-kite", "--small",
                         "--out", out, "--quiet"]) == 0
        from elastoscan.forward import load_msr

        msr = load_msr(os.path.join(out, "data.msr"))
        assert msr.m == SMALL_M and msr.delta == 0.0
        assert msr.scene.startswith("kite@")

    def test_noise_then_indicate(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        cli_main(["synth", "--config", cfg, "--out", out, "--quiet"])
        msr = os.path.join(out, "data.msr")
        assert cli_main(["noise", "--msr", msr, "--delta", "0.1", "--seed", "2",
                         "--out", out, "--quiet"]) == 0
        assert cli_main(["indicate", "--msr", os.path.join(out, "noisy.msr"),
                         "--kind", "ss", "--grid", "-3 3 -3 3 9 9",
                         "--out", out, "--quiet"]) == 0
        assert os.path.exists(os.path.join(out, "indicator_ss.csv"))
        assert os.path.exists(os.path.join(out, "indicator_ss.pgm"))

    def _indicate_all_into_empty_dir(self, tmp_path, edit_pp):
        """Exit code and output files of 'indicate --kind all' on tiny data with an edited pp block."""
        from elastoscan.forward import load_msr, save_msr

        src = str(tmp_path / "src")
        assert cli_main(["synth", "--config", self._write_cfg(tmp_path), "--out", src,
                         "--quiet"]) == 0
        msr = load_msr(os.path.join(src, "data.msr"))
        edited = replace(msr, full=msr.full.copy())
        edit_pp(edited.f_pp)
        path = str(tmp_path / "edited.msr")
        save_msr(edited, path)
        out = tmp_path / "out"
        out.mkdir()
        code = cli_main(["indicate", "--msr", path, "--kind", "all", "--grid", "-3 3 -3 3 9 9",
                         "--out", str(out), "--quiet"])
        return code, sorted(p.name for p in out.iterdir())

    def test_non_finite_msr_exit_4_writes_nothing(self, tmp_path):
        def put_nan(f_pp):
            f_pp[3, 5] = np.nan

        assert self._indicate_all_into_empty_dir(tmp_path, put_nan) == (4, [])

    def test_degenerate_field_exit_3_writes_nothing(self, tmp_path):
        # an all-zero pp block gives an all-zero PP field, which has no heatmap
        def zero(f_pp):
            f_pp[:] = 0.0

        assert self._indicate_all_into_empty_dir(tmp_path, zero) == (3, [])

    def test_retrieve_subcommand(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        cli_main(["synth", "--config", cfg, "--out", out, "--quiet"])
        code = cli_main(["retrieve", "--msr", os.path.join(out, "data.msr"),
                         "--observed", "[0.0,1.5707963267948966)", "--out", out, "--quiet"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "retrieved.msr"))

    def test_experiment_fields_match_indicate_on_its_msr_files(self, tmp_path):
        """The retrieved fields, which experiment takes from the limited pass, agree
        with indicate on <label>_retrieved.msr; the limited fields are the bytes of
        indicate --observed on <label>.msr."""
        # the 64-point x axis has a skeleton of fewer points, so forms are interpolated
        grid, q, arc = "-3 3 -3 3 64 9", "0.6 0.8", "[0,1.5707963267948966)"
        cfg = tmp_path / "lim.cfg"
        cfg.write_text(TINY_RETRIEVAL.replace("grid = -3 3 -3 3 9 9", f"grid = {grid}")
                       + f"q = {q}\n")
        out = tmp_path / "exp"
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        for tag, source, aperture in (("retr", "run_retrieved.msr", []),
                                      ("limit", "run.msr", ["--observed", arc])):
            plain = tmp_path / tag
            assert cli_main(["indicate", "--msr", str(out / source), "--grid", grid, "--q", q,
                             *aperture, "--out", str(plain), "--quiet"]) == 0
            for kind in ("ss", "pp", "ff"):
                got = (out / f"run_{tag}_{kind}.csv").read_bytes()
                want = (plain / f"indicator_{kind}.csv").read_bytes()
                if tag == "limit":
                    assert got == want, kind
                    continue
                a, b = (np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1)
                        for data in (got, want))
                assert np.array_equal(a[:, :2], b[:, :2])
                assert np.abs(a[:, 2] - b[:, 2]).max() <= 1e-12 * b[:, 2].max(), kind

    def test_unknown_preset_exit_2_lists_presets(self, tmp_path, capsys):
        code = cli_main(["experiment", "--preset", "nope",
                         "--out", str(tmp_path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "dirichlet-kite" in err

    def test_missing_msr_exit_4(self, tmp_path):
        assert cli_main(["indicate", "--msr", str(tmp_path / "absent.msr"),
                         "--quiet"]) == 4

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        assert cli_main(["synth", "--config", str(path), "--out",
                         str(tmp_path / "o"), "--quiet"]) == 2

    def test_env_out_override(self, tmp_path, monkeypatch):
        cfg = self._write_cfg(tmp_path)
        target = tmp_path / "env_out"
        monkeypatch.setenv("ELASTOSCAN_OUT", str(target))
        assert cli_main(["synth", "--config", cfg, "--quiet"]) == 0
        assert (target / "data.msr").exists()

    def test_presets_listing(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out

    @pytest.fixture(scope="class")
    def tiny_kite(self, tmp_path_factory):
        """(config path, data.msr path) of the tiny kite."""
        root = tmp_path_factory.mktemp("tiny_kite")
        cfg = root / "tiny.cfg"
        cfg.write_text(TINY_KITE)
        assert cli_main(["synth", "--config", str(cfg), "--out", str(root), "--quiet"]) == 0
        return cfg, root / "data.msr"

    # row -> (argv, config text, MSR edit, exit code).  {cfg} is a file holding the
    # config text (default: the tiny kite's), {msr} the tiny kite's data.msr with the
    # edit applied: (header prefix, replacement line, keep the data rows), or a
    # function of the file's bytes
    BAD_INPUTS = {
        "01-indicate-grid": (["indicate", "--msr", "{msr}", "--grid", "1 0 0 1 5 5"],
                             None, None, 2),
        "02-indicate-q-text": (["indicate", "--msr", "{msr}", "--q", "a b"], None, None, 2),
        "03-indicate-q-nan": (["indicate", "--msr", "{msr}", "--q", "nan 0"], None, None, 2),
        "04-indicate-arc": (["indicate", "--msr", "{msr}", "--observed", "[0,x)"], None, None, 2),
        # retrieve has no ball extrapolation, so no --radius, --nb or --alpha
        "05-retrieve-radius": (["retrieve", "--msr", "{msr}", "--observed", "[0,1.57)",
                                "--radius", "5"], None, None, 2),
        "06-retrieve-nb": (["retrieve", "--msr", "{msr}", "--observed", "[0,1.57)",
                            "--nb", "0"], None, None, 2),
        "07-retrieve-alpha": (["retrieve", "--msr", "{msr}", "--observed", "[0,1.57)",
                               "--alpha", "-1"], None, None, 2),
        "08-noise-delta-negative": (["noise", "--msr", "{msr}", "--delta", "-1"], None, None, 2),
        "09-noise-delta-nan": (["noise", "--msr", "{msr}", "--delta", "nan"], None, None, 2),
        "10-experiment-index": (["experiment", "--config", "{cfg}"],
                                TINY_KITE + "observed = indices 99\n", None, 2),
        "11-experiment-radius": (["experiment", "--config", "{cfg}"],
                                 TINY_KITE + "observed = arcs [0,1.57)\n"
                                 "retrieve = R=5.0\n", None, 2),
        # q = (1,0) is orthogonal to the shear polarization of the one incident
        # direction d = (1,0), so the SS field is exactly zero and has no heatmap
        "12-experiment-zero-field": (["experiment", "--config", "{cfg}"],
                                     "scene = circle@(0.0,0.0)*1.0\nm = 8\nn = 128\n"
                                     "kinds = ss\nincident = indices 1\n"
                                     "grid = -3 3 -3 3 9 9\n", None, 3),
        "13-experiment-q-nan": (["experiment", "--config", "{cfg}"],
                                TINY_KITE + "q = nan 0\n", None, 2),
        "14-experiment-delta-nan": (["experiment", "--config", "{cfg}"],
                                    TINY_KITE.replace("delta = 0.1", "delta = nan"), None, 2),
        "15-msr-lambda": (["indicate", "--msr", "{msr}"], None,
                          ("#lambda=", "#lambda=abc", True), 4),
        "16-msr-mu": (["indicate", "--msr", "{msr}"], None, ("#mu=", "#mu=-1.0", True), 4),
        "17-msr-seed": (["noise", "--msr", "{msr}", "--delta", "0.1"], None,
                        ("#seed=", "#seed=x", True), 4),
        "18-msr-header-only-m0": (["indicate", "--msr", "{msr}"], None,
                                  ("#m=", "#m=0", False), 4),
        "19-experiment-config-and-preset": (["experiment", "--config", "{cfg}", "--preset",
                                             "dirichlet-kite", "--small"], TINY_KITE, None, 2),
        "20-experiment-omega-inf": (["experiment", "--config", "{cfg}"],
                                    TINY_KITE.replace("omega = 3.141592653589793",
                                                      "omega = inf"), None, 2),
        "21-indicate-grid-inf": (["indicate", "--msr", "{msr}", "--grid", "-inf 3 -3 3 9 9"],
                                 None, None, 2),
        "22-msr-omega-inf": (["indicate", "--msr", "{msr}"], None,
                             ("#omega=", "#omega=inf", True), 4),
        "23-experiment-retrieve-full-data": (["experiment", "--config", "{cfg}"],
                                             TINY_KITE + "retrieve = reciprocity\n",
                                             None, 2),
        "24-experiment-kinds-empty": (["experiment", "--config", "{cfg}"],
                                      TINY_KITE + "kinds =\n", None, 2),
        "25-experiment-seed-negative": (["experiment", "--config", "{cfg}"],
                                        TINY_KITE + "seed = -1\n", None, 2),
        "26-experiment-nb-zero": (["experiment", "--config", "{cfg}"],
                                  TINY_KITE + "observed = arcs [0,1.57)\n"
                                  "retrieve = nB=0\n", None, 2),
        "27-experiment-seed-flag-negative": (["experiment", "--config", "{cfg}", "--seed", "-1"],
                                             TINY_KITE, None, 2),
        "28-retrieve-radius-inf": (["retrieve", "--msr", "{msr}", "--observed", "[0,1.57)",
                                    "--radius", "inf"], None, None, 2),
        "29-retrieve-alpha-inf": (["retrieve", "--msr", "{msr}", "--observed", "[0,1.57)",
                                   "--alpha", "inf"], None, None, 2),
        "30-experiment-radius-inf": (["experiment", "--config", "{cfg}"],
                                     TINY_KITE + "observed = arcs [0,1.57)\n"
                                     "retrieve = reciprocity R=inf\n", None, 2),
        "31-noise-seed-negative": (["noise", "--msr", "{msr}", "--delta", "0.1", "--seed", "-1"],
                                   None, None, 2),
        # --config, --preset and --small belong to synth and experiment only
        "32-noise-preset-flag": (["noise", "--msr", "{msr}", "--delta", "0.1", "--preset",
                                  "dirichlet-kite"], None, None, 2),
        "33-indicate-small-flag": (["indicate", "--msr", "{msr}", "--small"], None, None, 2),
        "34-retrieve-config-flag": (["retrieve", "--msr", "{msr}", "--observed", "[0,1.57)",
                                     "--config", "{cfg}"], None, None, 2),
        "35-indicate-preset-flag": (["indicate", "--msr", "{msr}", "--preset",
                                     "dirichlet-kite"], None, None, 2),
        # --seed belongs to synth, noise and experiment only
        "36-indicate-seed-flag": (["indicate", "--msr", "{msr}", "--seed", "3"], None, None, 2),
        "37-retrieve-seed-flag": (["retrieve", "--msr", "{msr}", "--observed", "[0,1.57)",
                                   "--seed", "3"], None, None, 2),
        # a byte that is not UTF-8 in the first data row
        "38-msr-non-utf8-byte": (["noise", "--msr", "{msr}", "--delta", "0.1"], None,
                                 lambda data: re.sub(rb"\n(?=[^#])", b"\n\xff", data, count=1),
                                 4),
        # finite numbers, but n = 64 nodes resolve nothing at this frequency
        "39-synth-under-resolved": (["synth", "--config", "{cfg}"],
                                    TINY_KITE.replace("omega = 3.141592653589793",
                                                      "omega = 1e150"), None, 2),
        # [0.1, 0.2) lies between the grid directions 0 and pi/8 at m = 8
        "40-indicate-arc-selects-nothing": (["indicate", "--msr", "{msr}", "--observed",
                                             "[0.1,0.2)"], None, None, 2),
        # a header key given twice: the later #m does not override the first
        "41-msr-repeated-key": (["noise", "--msr", "{msr}", "--delta", "0.1"], None,
                                lambda data: data + b"#m=4\n", 4),
        # an arc whose ends coincide mod 2 pi is the full circle: retrieval would be a no-op
        "42-retrieve-arc-full-circle": (["retrieve", "--msr", "{msr}", "--observed", "[0,0)"],
                                        None, None, 2),
        "43-experiment-retrieve-full-circle": (["experiment", "--config", "{cfg}"],
                                               TINY_KITE + "observed = arcs [0,0)\n"
                                               "retrieve = reciprocity\n", None, 2),
        # non-finite arc bounds: [0,inf) would select direction 0 alone
        "44-indicate-arc-inf": (["indicate", "--msr", "{msr}", "--observed", "[0,inf)"],
                                None, None, 2),
        "45-indicate-arc-nan": (["indicate", "--msr", "{msr}", "--incident", "[nan,1)"],
                                None, None, 2),
        "46-experiment-arc-inf": (["experiment", "--config", "{cfg}"],
                                  TINY_KITE + "observed = arcs [0,1.57) [-inf,0)\n", None, 2),
        # finite grid ends whose linspace overflows, or whose points repeat
        "47-indicate-grid-overflow": (["indicate", "--msr", "{msr}", "--grid",
                                       "-1e308 1e308 -1 1 5 5"], None, None, 2),
        "48-indicate-grid-repeats": (["indicate", "--msr", "{msr}", "--grid",
                                      "0 5e-324 0 1 5 5"], None, None, 2),
        "49-experiment-grid-overflow": (["experiment", "--config", "{cfg}"],
                                        TINY_KITE.replace("grid = -3 3 -3 3 9 9",
                                                          "grid = -1 1 -1e308 1e308 5 5"),
                                        None, 2),
        "50-experiment-grid-repeats": (["experiment", "--config", "{cfg}"],
                                       TINY_KITE.replace("grid = -3 3 -3 3 9 9",
                                                         "grid = 0 5e-324 0 1 5 5"), None, 2),
        # a finite delta whose noise overflows: delta ||F|| is inf
        "51-noise-delta-overflow": (["noise", "--msr", "{msr}", "--delta", "1e308"],
                                    None, None, 3),
        "52-experiment-delta-overflow": (["experiment", "--config", "{cfg}"],
                                         TINY_KITE.replace("delta = 0.1", "delta = 1e308"),
                                         None, 3),
    }

    @pytest.mark.parametrize("row", sorted(BAD_INPUTS))
    def test_bad_input_exit_code_and_no_file(self, tmp_path, tiny_kite, row):
        argv, cfg_text, msr_edit, expected = self.BAD_INPUTS[row]
        cfg_path, msr_path = tiny_kite
        if cfg_text is not None:
            cfg_path = tmp_path / "row.cfg"
            cfg_path.write_text(cfg_text)
        if callable(msr_edit):
            msr_path = tmp_path / "edited.msr"
            msr_path.write_bytes(msr_edit(tiny_kite[1].read_bytes()))
        elif msr_edit is not None:
            prefix, replacement, keep_rows = msr_edit
            lines = [replacement if ln.startswith(prefix) else ln
                     for ln in msr_path.read_text().splitlines()
                     if keep_rows or ln.startswith("#")]
            msr_path = tmp_path / "edited.msr"
            msr_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = [a.format(cfg=cfg_path, msr=msr_path) for a in argv]
        assert cli_main(argv + ["--out", str(out), "--quiet"]) == expected
        assert not out.exists() or sorted(os.listdir(out)) == []

    def test_overflowing_noise_message_names_plain_numbers(self, tmp_path, tiny_kite, capsys):
        argv = ["noise", "--msr", str(tiny_kite[1]), "--delta", "1e308", "--out", str(tmp_path)]
        assert cli_main(argv + ["--quiet"]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: noise of delta=1e+308 overflows: delta ||F|| = inf\n")

    # (kind, position, bytes): overwrite one byte, insert bytes, or cut the file there
    MSR_EDITS = st.lists(st.tuples(st.sampled_from(("set", "insert", "truncate")),
                                   st.integers(min_value=0), st.binary(min_size=1, max_size=3)),
                         min_size=1, max_size=3)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(edits=MSR_EDITS)
    def test_edited_msr_bytes_exit_0_or_4_and_leave_no_partial_file(self, tiny_kite, edits):
        data = tiny_kite[1].read_bytes()
        for kind, pos, new in edits:
            pos %= len(data) + 1
            if kind == "set":
                data = data[:pos] + new[:1] + data[pos + 1:]
            elif kind == "insert":
                data = data[:pos] + new + data[pos:]
            else:
                data = data[:pos]
        with tempfile.TemporaryDirectory() as tmp:
            msr_path, out = os.path.join(tmp, "edited.msr"), os.path.join(tmp, "out")
            with open(msr_path, "wb") as fh:
                fh.write(data)
            rc = cli_main(["noise", "--msr", msr_path, "--delta", "0.1", "--out", out,
                           "--quiet"])
            assert rc in (0, 4)
            written = sorted(os.listdir(out)) if os.path.exists(out) else []
            assert written == (["noisy.msr"] if rc == 0 else [])

    # value tokens: mostly in range, then out of range, non-finite or malformed
    BAD = ("1e308", "1e-300", "nan", "inf", "-inf", "x", "", "1,5")
    NUMBERS = st.sampled_from(("0", "1", "-1", "0.5", "2.5", "3.141592653589793") * 2 + BAD)
    POSITIVE = st.sampled_from(("0.5", "1", "2", "6.283185307179586") * 3 + ("0", "-1") + BAD)
    SMALL_INTS = st.sampled_from(("0", "1", "3", "5", "8", "16") * 2 + ("-1", "x", "8.0", ""))
    ANGLES = st.sampled_from(("0", "0.5", "1.57", "3.141592653589793", "4.7", "6.3", "-1",
                              "7") * 6 + BAD)
    ARC = st.tuples(ANGLES, ANGLES).map("[{0[0]},{0[1]})".format)
    # "" alone is the empty arc list
    ARCS = st.lists(st.one_of(ARC, ARC, ARC,
                              st.sampled_from(("[0,1]", "(0,1)", "[0;1)", "[,)", "[0,1.57",
                                               "0,1.57)", "[]", "")),
                              # non-finite bounds that once selected grid directions
                              st.sampled_from(("[0,inf)", "[3.141592653589793,-inf)",
                                               "[nan,1)"))),
                    min_size=1, max_size=2).map(" ".join)
    MASKS = st.one_of(st.just("full"), ARCS.map("arcs {}".format),
                      st.lists(SMALL_INTS, max_size=3).map(" ".join).map("indices {}".format),
                      st.sampled_from(("", "arcs", "indices", "everything")))
    # retrieve tokens of a ball extrapolation (R=, nB=, alpha=), which the grammar rejects
    OLD_RETRIEVE = (st.lists(st.tuples(st.sampled_from(("R", "nB", "alpha") * 2 + ("beta", "")),
                                       st.one_of(POSITIVE, SMALL_INTS, st.just("auto")))
                             .map("{0[0]}={0[1]}".format), min_size=1, max_size=3)
                    .map(" ".join))
    CONFIG_VALUES = {
        "scene": st.lists(st.tuples(st.sampled_from(("kite", "circle", "peanut", "pear") * 2
                                                    + ("disk", "")),
                                    NUMBERS, NUMBERS, POSITIVE)
                          .map("{0[0]}@({0[1]},{0[2]})*{0[3]}".format),
                          min_size=1, max_size=2).map(" + ".join),
        "bc": st.sampled_from(("dirichlet", "neumann", "mixed", "")),
        "lambda": NUMBERS,
        "mu": POSITIVE,
        "omega": POSITIVE,
        "m": st.sampled_from(("4", "8") * 3 + ("-1", "0", "3", "x", "8.0", "")),
        "n": st.sampled_from(("64", "96") * 3 + ("63", "0", "x", "")),
        "grid": st.one_of(st.tuples(NUMBERS, POSITIVE, NUMBERS, POSITIVE, SMALL_INTS,
                                    SMALL_INTS).map(" ".join),
                          st.lists(NUMBERS, max_size=7).map(" ".join)),
        "delta": NUMBERS,
        "seed": SMALL_INTS,
        "kinds": st.lists(st.sampled_from(("ss", "pp", "ff") * 2 + ("sp", "SS")), max_size=3)
                   .map(" ".join),
        "q": st.sampled_from(("1 0", "0 1", "0.6 0.8", "-0.8 0.6") * 2
                             + ("nan 0", "1", "a b", "0 0", "1 0 0", "inf 0")),
        "observed": MASKS,
        "incident": MASKS,
        "retrieve": st.one_of(st.sampled_from(("off", "reciprocity")), OLD_RETRIEVE),
    }
    JUNK_LINES = st.sampled_from(("",) * 8 + ("m = 8\n", "colour = red\n", "no equals sign\n",
                                              "= 3\n", "# comment = 1\n", "\x00\n",
                                              "scène = kite\n"))

    @st.composite
    def config_texts(draw, values=CONFIG_VALUES, junk=JUNK_LINES):
        """The tiny kite's config with one to three keys given drawn values, and a
        drawn extra line."""
        lines = dict(line.split(" = ", 1) for line in TINY_KITE.strip().splitlines())
        for key in draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3,
                                 unique=True)):
            lines[key] = draw(values[key])
        return "".join(f"{k} = {v}\n" for k, v in lines.items()) + draw(junk)

    @staticmethod
    def run_quietly(argv) -> tuple[int, str]:
        """cli_main's exit code and what it wrote to stderr."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli_main(argv)
        return rc, err.getvalue()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(text=config_texts())
    def test_generated_config_exits_0_to_4_and_leaves_no_partial_file(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "gen.cfg"), os.path.join(tmp, "out")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            rc, err = self.run_quietly(["synth", "--config", cfg, "--out", out, "--quiet"])
            assert rc in (0, 2, 3, 4)
            assert "Traceback" not in err
            written = sorted(os.listdir(out)) if os.path.exists(out) else []
            assert written == (["data.msr"] if rc == 0 else [])

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(value=OLD_RETRIEVE)
    def test_ball_retrieve_tokens_exit_2_and_leave_no_file(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "gen.cfg"), os.path.join(tmp, "out")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(TINY_KITE + f"observed = arcs [0,1.57)\nretrieve = {value}\n")
            rc, err = self.run_quietly(["experiment", "--config", cfg, "--out", out, "--quiet"])
            assert rc == 2 and "retrieve" in err
            assert not os.path.exists(out) or os.listdir(out) == []

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(observed=st.one_of(st.none(), ARCS), incident=st.one_of(st.none(), ARCS))
    def test_generated_arc_specs_exit_0_to_4_and_leave_no_partial_file(self, tiny_kite,
                                                                       observed, incident):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            argv = ["indicate", "--msr", str(tiny_kite[1]), "--kind", "ss", "--grid",
                    "-3 3 -3 3 9 9", "--out", out, "--quiet"]
            for flag, spec in (("--observed", observed), ("--incident", incident)):
                if spec is not None:
                    argv += [flag, spec]
            rc, err = self.run_quietly(argv)
            assert rc in (0, 2, 3, 4)
            if any(not np.isfinite(bounds).all()
                   for bounds in map(self.arc_bounds, f"{observed or ''} {incident or ''}".split())
                   if bounds is not None):
                assert rc == 2
            assert "Traceback" not in err
            written = sorted(os.listdir(out)) if os.path.exists(out) else []
            assert written == (["indicator_ss.csv", "indicator_ss.pgm"] if rc == 0 else [])

    @staticmethod
    def arc_bounds(tok):
        """(a, b) of a well-formed arc token '[a,b)', or None."""
        if not (tok.startswith("[") and tok.endswith(")")):
            return None
        try:
            return tuple(float(v) for v in tok[1:-1].split(","))
        except ValueError:
            return None

    def test_failed_msr_write_leaves_no_file(self, tmp_path, tiny_kite, monkeypatch):
        import elastoscan.harness as hz

        def half_write(msr, path):
            with open(path, "w") as fh:
                fh.write("#version=MSR/1\n#m=")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(hz, "save_msr", half_write)
        out = tmp_path / "out"
        assert cli_main(["synth", "--config", str(tiny_kite[0]), "--out", str(out),
                         "--quiet"]) == 4
        assert os.listdir(out) == []

    def test_preset_failing_in_third_variant_leaves_no_file(self, tmp_path, monkeypatch):
        import elastoscan.harness as hz
        from elastoscan.forward import NumericError

        monkeypatch.setitem(hz.PRESET_BUILDERS, "limited-quarters",
                            lambda: parse_config(TINY_KITE.replace("delta = 0.1", "delta = 0")))
        # the variants share one forward solve; each evaluates its own forms
        forms_of = hz.forms_of
        calls = []

        def third_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NumericError("forced failure in the third variant")
            return forms_of(*args)

        monkeypatch.setattr(hz, "forms_of", third_fails)
        out = tmp_path / "out"
        assert cli_main(["experiment", "--preset", "limited-quarters", "--out", str(out),
                         "--quiet"]) == 3
        assert len(calls) == 3
        assert os.listdir(out) == []

    @pytest.mark.parametrize("preset,variants", [("limited-quarters", 4), ("few-incident", 5)])
    def test_aperture_variants_share_one_forward_solve(self, tmp_path, monkeypatch, preset,
                                                       variants):
        import elastoscan.harness as hz

        # the tiny kite with the preset's indicators and polarization
        real = build_preset(preset)
        tiny = replace(parse_config(TINY_KITE), kinds=real.kinds, q=real.q)
        monkeypatch.setitem(hz.PRESET_BUILDERS, preset, lambda: tiny)
        calls = {"synthesize_msr": 0, "add_noise": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(hz, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(hz, name, counted)
        out = tmp_path / "out"
        assert cli_main(["experiment", "--preset", preset, "--out", str(out), "--quiet"]) == 0
        assert calls == {"synthesize_msr": 1, "add_noise": 1}
        data = [p.read_bytes() for p in sorted(out.glob("*.msr"))]
        assert len(data) == variants and all(d == data[0] for d in data)
        manifest = json.loads((out / "manifest.json").read_text())
        assert {f["path"] for f in manifest["files"]} == {p.name for p in out.iterdir()} - {
            "manifest.json"}

    @pytest.mark.parametrize("command,takes_source", [
        ("synth", True), ("experiment", True),
        ("noise", False), ("indicate", False), ("retrieve", False)])
    def test_help_lists_the_flags_the_command_reads(self, capsys, command, takes_source):
        assert cli_main([command, "--help"]) == 0
        usage = capsys.readouterr().out
        for flag in ("--config", "--preset", "--small"):
            assert (flag in usage) == takes_source

    def test_config_run_manifest_echoes_env_out(self, tmp_path, tiny_kite, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("ELASTOSCAN_OUT", str(target))
        assert cli_main(["experiment", "--config", str(tiny_kite[0]), "--quiet"]) == 0
        data = json.loads((target / "manifest.json").read_text())
        assert data["env_overrides"] == {"ELASTOSCAN_OUT": str(target)}
        assert {f["path"] for f in data["files"]} == {p.name for p in target.iterdir()} - {
            "manifest.json"}



# the tiny kite with a quarter aperture and retrieval: two MSR/1 files (noisy and
# retrieved) and two field sets, each written while the next stage computes
TINY_RETRIEVAL = (TINY_KITE + "observed = arcs [0,1.5707963267948966)\n"
                  "retrieve = reciprocity\n")


class TestWriterThread:
    @staticmethod
    def fail_on_second_call(fn):
        """fn, except that its second call leaves a partial file at its path and raises."""
        calls = []

        def wrapped(*args):
            calls.append(args)
            if len(calls) == 2:
                with open(args[-1], "w") as fh:
                    fh.write("partial")
                raise OSError(28, "No space left on device")
            return fn(*args)

        return wrapped

    @pytest.mark.parametrize("target", ["save_msr", "to_csv"])
    def test_writer_failure_exits_4_and_leaves_no_file_or_thread(self, tmp_path, monkeypatch,
                                                                  target):
        import elastoscan.harness as hz

        if target == "save_msr":
            monkeypatch.setattr(hz, "save_msr", self.fail_on_second_call(hz.save_msr))
        else:
            monkeypatch.setattr(IndicatorField, "to_csv",
                                self.fail_on_second_call(IndicatorField.to_csv))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_RETRIEVAL)
        out = tmp_path / "out"
        before = set(threading.enumerate())
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 4
        assert set(threading.enumerate()) == before
        assert not out.exists() or os.listdir(out) == []

    # A stage that raises MemoryError stands in for an input too large to hold (a huge
    # grid or m): allocating one for real could exhaust the memory of the host.
    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys):
        import elastoscan.cli as cli

        def out_of_memory(*args):
            raise MemoryError

        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_KITE)
        assert cli_main(["synth", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        monkeypatch.setattr(cli, "forms_of", out_of_memory)
        out = tmp_path / "out"
        assert cli_main(["indicate", "--msr", str(tmp_path / "data.msr"), "--out", str(out),
                         "--quiet"]) == 2
        assert "needs more memory than is available" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    def test_memory_error_mid_experiment_exits_2_and_leaves_no_file(self, tmp_path,
                                                                     monkeypatch):
        import elastoscan.harness as hz

        calls = []
        fields_from_forms = hz.fields_from_forms

        def second_call_out_of_memory(*args):
            calls.append(args)
            if len(calls) == 2:                 # the data file and the first fields are out
                raise MemoryError
            return fields_from_forms(*args)

        monkeypatch.setattr(hz, "fields_from_forms", second_call_out_of_memory)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_RETRIEVAL)
        out = tmp_path / "out"
        before = set(threading.enumerate())
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 2
        assert len(calls) == 2
        assert set(threading.enumerate()) == before
        assert not out.exists() or os.listdir(out) == []

    def test_no_thread_outlives_a_cli_call(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_RETRIEVAL)
        out = str(tmp_path / "out")
        msr = os.path.join(out, "data.msr")
        calls = [["synth", "--config", str(cfg)],
                 ["noise", "--msr", msr, "--delta", "0.1"],
                 ["indicate", "--msr", msr, "--grid", "-3 3 -3 3 9 9"],
                 ["retrieve", "--msr", msr, "--observed", "[0,1.57)"],
                 ["experiment", "--config", str(cfg)]]
        for argv in calls:
            before = set(threading.enumerate())
            assert cli_main(argv + ["--out", out, "--quiet"]) == 0, argv
            assert set(threading.enumerate()) == before, argv

    def test_writer_timings_and_wait_are_recorded(self, tmp_path):
        # m = 64: every artifact group takes well over the 1 ms rounding of a timing
        lim = parse_config(TINY_CONFIG.replace("m = 8", "m = 64").replace("kinds = ss", "")
                           + "observed = arcs [0,1.5707963267948966)\n"
                           "retrieve = reciprocity\n")
        # b differs from a only in its aperture, so it copies a's MSR file
        variants = [("a", lim), ("b", replace(lim, observed=MaskSpec(arcs=((1.0, 3.0),))))]
        manifest = run_recorded(replace(lim, out=str(tmp_path / "w")), variants)
        for label in ("a", "b"):
            for key in (f"{label}.msr_write_s", f"{label}_limit.write_s",
                        f"{label}_retr.msr_write_s", f"{label}_retr.write_s"):
                assert manifest.timings[key] > 0, key
        assert manifest.timings["emit_wait_s"] >= 0
        written = json.loads((tmp_path / "w" / "manifest.json").read_text())
        assert written["timings"] == manifest.timings
        assert [f["path"] for f in written["files"]] == [
            f"{label}{name}" for label in ("a", "b") for name in (
                ".msr", "_limit_ss.csv", "_limit_ss.pgm", "_limit_pp.csv", "_limit_pp.pgm",
                "_limit_ff.csv", "_limit_ff.pgm", "_retrieved.msr", "_retr_ss.csv",
                "_retr_ss.pgm", "_retr_pp.csv", "_retr_pp.pgm", "_retr_ff.csv",
                "_retr_ff.pgm")]

    def test_artifacts_land_in_submission_order_under_fast_thread_switching(self, tmp_path):
        from elastoscan.harness import RunManifest, _Emitter

        grid = SamplingGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)
        rng = np.random.default_rng(0)
        fields = [IndicatorField(grid, rng.random((3, 3)) + 0.1, IndicatorKind.SS, (1.0, 0.0))
                  for _ in range(40)]
        manifest = RunManifest(config_text="", seed=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _Emitter(str(tmp_path / "s"), manifest) as emitter:
                for i, fld in enumerate(fields):
                    emitter.write_field(f"f{i:02d}", fld, f"f{i:02d}.write_s")
                    manifest.timings[f"main{i:02d}"] = float(i)
                emitter.write_manifest()
        finally:
            sys.setswitchinterval(interval)
        names = [f"f{i:02d}.{ext}" for i in range(len(fields)) for ext in ("csv", "pgm")]
        assert [f["path"] for f in manifest.files] == names
        for entry in manifest.files:
            data = (tmp_path / "s" / entry["path"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert all(manifest.timings[f"main{i:02d}"] == i for i in range(len(fields)))
        assert all(f"f{i:02d}.write_s" in manifest.timings for i in range(len(fields)))
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())["files"] == manifest.files


class TestGridOnly:
    """The pipeline evaluates the indicators on the SamplingGrid itself: no stage lists
    the grid's points."""

    # sha256 of each artifact at one thread of each OpenBLAS copy (x86-64, OpenBLAS
    # 0.3.31); a change that moves one changes the numbers and must say so
    EXPERIMENT = {
        "run.msr": "dd2ae98246a2da45ccc487dc424f8cf5512cd67ef94baed91b2567721e543115",
        "run_limit_ff.csv": "b8c9258597cff050e23c302e4a40336b3d6b5080d182757cc95b5ef8fec9d551",
        "run_limit_ff.pgm": "75b2bcf2c046e7533300cfdd3cbe2eae44976975931fde5902d2d4e36bade18c",
        "run_limit_pp.csv": "05927e73a54217dd5ac7aa020476ca518c9f64006c27a691b105e8f2bfc1155f",
        "run_limit_pp.pgm": "5651dbd953326b209d11685a5320340e4c41dbacff1096c3ba332d6c615b5f8a",
        "run_limit_ss.csv": "36fb2ced0f86ac3e9a2486753fc9a831b217eca75856955baa0309da592c28d2",
        "run_limit_ss.pgm": "0c6b1276eccd1e03b47ed3e6272336f7ead61a91b90ad0590ad71c0cd6ddbcd0",
        "run_retr_ff.csv": "7ea9d44e9f73b774b7123e5ff1d46e63538e581ad1c8d77030271c4f0de6e46f",
        "run_retr_ff.pgm": "a6b61d307c68f9fab84c647198852d9ad4ec9cf0f7b2dd074235d0f0a9a96984",
        "run_retr_pp.csv": "5b148cdf3e006cf8a6aaa227b9ed2461f2449d5b25351d1e6f42efa9d28430b6",
        "run_retr_pp.pgm": "f30f9ab69ec91e93aab40e9b44d9dd4704f6626619381f34a6176cc9594e986f",
        "run_retr_ss.csv": "ee847338ae202b6cdaedd57e672bd8062cb0df70d87ae6a3e73bc2b694246a74",
        "run_retr_ss.pgm": "67bb8a4c9aa7a94a5c212774eb60cb44959dd9b94a766944940ae027c38cb311",
        "run_retrieved.msr": "85c293fd9b951e43df20eb7bf5c5498f2054678ee6a256415df6655dc2a71024",
    }
    INDICATE = {
        "indicator_ff.csv": "523853da77a0a4908d8fe1398f34bce102f6324b38a2e571cf9c04742438ce84",
        "indicator_ff.pgm": "7660b9dff3aba264f708abcc175850d211f23d5c1142d6809b78a4f97053a106",
        "indicator_pp.csv": "312a7d249339305a800524f48d4f5c437c4f3043b26f2a5b4d20ab1af2ed554f",
        "indicator_pp.pgm": "19895a8a52938552aa7f800b324b47e4d2d841956fe825509392c01676c6b5d0",
        "indicator_ss.csv": "471dbfabc0148be0e0c3606eeea42140745810ba51f91f9ae5b39a17480690ae",
        "indicator_ss.pgm": "2929caa1e954daaf97796ee793839f3997e220a5a8ad3d38de406ecfe6b4d44c",
    }

    @staticmethod
    def digests(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
                if p.name != "manifest.json"}

    def test_experiment_and_indicate_never_list_grid_points(self, tmp_path, monkeypatch,
                                                            one_blas_thread):
        if not one_blas_thread:
            pytest.skip("the digests hold at one thread of each OpenBLAS copy")

        def no_points(self):
            raise AssertionError("SamplingGrid.points called by the pipeline")

        monkeypatch.setattr(SamplingGrid, "points", no_points)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_RETRIEVAL)
        exp, ind = tmp_path / "exp", tmp_path / "ind"
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(exp), "--quiet"]) == 0
        assert cli_main(["indicate", "--msr", str(exp / "run.msr"), "--kind", "all",
                         "--observed", "[0,1.5708)", "--out", str(ind), "--quiet"]) == 0
        assert self.digests(exp) == self.EXPERIMENT
        assert self.digests(ind) == self.INDICATE
