import json
import math
from pathlib import Path

import numpy as np
import pytest

from chtransition import (
    DomainSpec,
    PhysicalParams,
    classify_transition,
    critical_set,
    critical_temperature,
    cubic_coefficients,
    growth_rate,
)
from chtransition.cli import _build_parser, _write_csv, main
from chtransition.config import ConfigError, load_config

from conftest import array_rk4

BASE = """
[physical]
R = 1.0
gamma = 1.0
alpha = 1.0
ubar = 0.5
T = 0.24

[mobility]
H0 = 1.0

[domain]
L1 = 3.141592653589793
L2 = 2.0
L3 = 1.0
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_load_base(self, tmp_path):
        cfg = load_config(_write(tmp_path, BASE))
        assert cfg.physical.ubar == 0.5
        assert cfg.domain.lengths == (3.141592653589793, 2.0, 1.0)
        assert cfg.T == 0.24
        assert cfg.seed == 0

    def test_missing_key_names_it(self, tmp_path):
        broken = BASE.replace("ubar = 0.5\n", "")
        with pytest.raises(ConfigError, match="ubar"):
            load_config(_write(tmp_path, broken))

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = _write(tmp_path, BASE + "\n[simulate]\nwibble = 3\n")
        with pytest.raises(ConfigError, match="wibble"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="plotting"):
            load_config(_write(tmp_path, BASE + "\n[plotting]\nx = 1\n"))

    def test_unknown_section_names_its_header_line(self, tmp_path):
        text = BASE + "\n[plotting]\nx = 1\n"
        lineno = text.splitlines().index("[plotting]") + 1
        with pytest.raises(ConfigError, match=rf"run\.cfg:{lineno}: unknown section \[plotting\]"):
            load_config(_write(tmp_path, text))

    def test_missing_key_names_its_section_header_line(self, tmp_path):
        # at the header of its section; with no such section, at no line
        text = BASE.replace("ubar = 0.5\n", "")
        lineno = text.splitlines().index("[physical]") + 1
        with pytest.raises(ConfigError, match=rf"run\.cfg:{lineno}: missing key 'ubar'"):
            load_config(_write(tmp_path, text))
        text = BASE[: BASE.index("[domain]")]
        with pytest.raises(ConfigError, match=r"run\.cfg: missing key 'L1' in section \[domain\]"):
            load_config(_write(tmp_path, text))

    def test_bad_value_reports_line(self, tmp_path):
        broken = BASE.replace("gamma = 1.0", "gamma = much")
        with pytest.raises(ConfigError, match="gamma"):
            load_config(_write(tmp_path, broken))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(_write(tmp_path, BASE + "\n[run]\nseed = 1\nseed = 2\n"))

    def test_profile_parsing(self, tmp_path):
        cfg = load_config(_write(tmp_path, BASE))
        assert cfg.physical.mobility.profile is None
        text = BASE.replace("H0 = 1.0", "profile = poly 0.6 1.2 -1.0")
        cfg = load_config(_write(tmp_path, text, name="prof.cfg"))
        mob = cfg.physical.mobility
        assert mob.profile is not None
        # the Taylor data at ubar come from the profile alone
        assert (mob.h0, mob.h1, mob.h2) == mob.profile.taylor_data(0.5)
        assert (mob.h0, mob.h1, mob.h2) == pytest.approx((0.95, 0.2, -2.0), rel=1e-15)

    @pytest.mark.parametrize("key", ["H0", "H1", "H2"])
    def test_profile_beside_taylor_data_names_the_line(self, tmp_path, capsys, key):
        text = BASE.replace("H0 = 1.0", f"profile = poly 0.6 1.2 -1.0\n{key} = 0.95")
        lineno = text.splitlines().index(f"{key} = 0.95") + 1
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=f"run.cfg:{lineno}: '{key}'"):
            load_config(path)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"run.cfg:{lineno}: '{key}'" in capsys.readouterr().err

    def test_table_knot_at_ubar_names_the_profile_line(self, tmp_path, capsys):
        text = BASE.replace("H0 = 1.0", "profile = table 0:1 0.5:1.2 1:1")
        lineno = text.splitlines().index("profile = table 0:1 0.5:1.2 1:1") + 1
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=f"run.cfg:{lineno}: .*knot s = 0.5"):
            load_config(path)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"run.cfg:{lineno}:" in capsys.readouterr().err

    def test_profile_with_overflowing_derivatives_names_its_line(self, tmp_path, capsys):
        # the values on [0, 1] stay finite; H' and H'' at ubar overflow to nan
        text = BASE.replace("H0 = 1.0", "profile = poly 1 1e308 1e308 -1e308")
        lineno = text.splitlines().index("profile = poly 1 1e308 1e308 -1e308") + 1
        path = _write(tmp_path, text)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:{lineno}: bad value for 'profile': mobility h0, h1, h2" in err
        assert "must be finite" in err

    def test_readme_config_loads_as_written_and_with_each_profile(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("\n```", 1)[0]
        lines = block.splitlines()
        cfg = load_config(_write(tmp_path, block))
        assert cfg.physical.mobility.profile is None
        profiles = [line[1:].strip() for line in lines if line.startswith("# profile =")]
        assert len(profiles) == 2
        for i, profile in enumerate(profiles):
            swapped = [line for line in lines if line.split("=")[0].strip() not in ("H0", "H1", "H2")]
            swapped.insert(swapped.index("[mobility]") + 1, profile)
            cfg = load_config(_write(tmp_path, "\n".join(swapped), name=f"p{i}.cfg"))
            mob = cfg.physical.mobility
            assert mob.profile is not None
            assert (mob.h0, mob.h1, mob.h2) == mob.profile.taylor_data(cfg.physical.ubar)

    def test_case_key_is_unknown(self, tmp_path, capsys):
        text = BASE.replace("L3 = 1.0", "L3 = 1.0\ncase = distinct")
        lineno = text.splitlines().index("case = distinct") + 1
        path = _write(tmp_path, text)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"run.cfg:{lineno}: unknown key 'case'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("simulate", "record_every", "0"),
            ("reduce", "record_every", "0"),
            ("simulate", "t_end", "-5"),
            ("validate", "relaxation_times", "-1"),
            ("simulate", "band_limit", "-1"),
            ("simulate", "dt", "-0.1"),
            ("simulate", "grid", "4"),
            ("simulate", "stabilization", "-1"),
            ("simulate", "seed_amplitude", "-1"),
            ("reduce", "dt", "0"),
            ("reduce", "steps", "0"),
            ("sweep", "workers", "0"),
            ("domain", "tie_tolerance", "-1"),
            ("simulate", "seed_modes", "-1 0 0 : 0.1"),
            ("simulate", "seed_modes", "0 0 0 : 0.1"),
            ("simulate", "seed_modes", "32 0 0 : 0.1"),
            ("simulate", "seed_modes", "1 0 0 : 0.1, 1 0 0 : 0.3"),
            ("run", "seed", "-3"),
            ("sweep", "epsilons", "0.01 1.5"),
            ("sweep", "epsilons", "0"),
            *[("physical", key, v) for key in ("R", "gamma", "alpha") for v in ("0", "-1")],
            *[("physical", "ubar", v) for v in ("0", "1", "1.5")],
            *[("physical", "T", v) for v in ("0", "-0.2")],
            ("mobility", "H0", "0"),
            *[("domain", key, "0") for key in ("L1", "L2", "L3")],
        ],
    )
    def test_out_of_range_value_names_the_line(self, tmp_path, capsys, section, key, value):
        lines = BASE.splitlines()
        given = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
        if given:
            # a key BASE sets takes the bad value in place
            lines[given[0]] = f"{key} = {value}"
            text, lineno = "\n".join(lines) + "\n", given[0] + 1
        else:
            text = BASE + f"\n[{section}]\n{key} = {value}\n"
            lineno = len(text.splitlines())
        path = _write(tmp_path, text)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"run.cfg:{lineno}: bad value for '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["reduce", "validate"])
    @pytest.mark.parametrize("command", ["classify", "simulate", "reduce", "sweep", "validate"])
    def test_y0_of_the_wrong_length_names_the_line(self, tmp_path, capsys, command, section):
        text = BASE + f"\n[{section}]\ny0 = 0.01 0.02\n"
        path = _write(tmp_path, text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:{len(text.splitlines())}: bad value for 'y0'" in err
        assert "2 components but the domain carries 1 critical modes" in err

    def test_default_y0_is_checked_by_the_command(self, tmp_path, capsys):
        # box (pi, pi, 1) carries 2 critical modes; the 1-component default
        # loads, and the commands that use it refuse it
        path = _write(tmp_path, BASE.replace("L2 = 2.0", "L2 = 3.141592653589793"))
        assert load_config(path).reduce.y0 == (0.01,)
        for command in ("reduce", "validate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            assert f"{command}.y0 has 1 components" in capsys.readouterr().err

    def test_seed_mode_outside_a_small_grid_names_the_line(self, tmp_path, capsys):
        text = BASE + "\n[simulate]\ngrid = 8\nseed_modes = 8 0 0 : 0.1\n"
        path = _write(tmp_path, text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:{len(text.splitlines())}: bad value for 'seed_modes'" in err
        assert "does not fit in grid shape (8, 8, 8)" in err

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, BASE)
        argv = ["classify", "--config", str(path), "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-3"])
        assert exc.value.code == 2
        assert "argument --seed: must be an integer >= 0, got '-3'" in capsys.readouterr().err

    def test_every_key_at_its_default_loads_as_the_minimal_file(self, tmp_path):
        # every settings key spelled out at its documented default; seed_modes
        # has no value for its default (none: a random seed field)
        full = BASE.replace("H0 = 1.0", "H0 = 1.0\nH1 = 0.0\nH2 = 0.0") + """\
tie_tolerance = 1e-12

[simulate]
grid = 32 32 32
dt = 0.05
t_end = 200
record_every = 10
scheme = imex1
rhs = taylor
stabilization = 0
seed_amplitude = 1e-3
band_limit = 4
save_final_field = false

[reduce]
y0 = 0.01
dt = 0.01
steps = 20000
record_every = 10
sigma_at = ambient

[sweep]
epsilons = 0.01 0.02 0.04 0.06 0.08
workers = 2

[validate]
y0 = 0.02
relaxation_times = 1

[run]
seed = 0
"""
        minimal = load_config(_write(tmp_path, BASE))
        assert load_config(_write(tmp_path, full, name="full.cfg")) == minimal

    @pytest.mark.parametrize(
        "lengths,key", [("1.0 2.0 0.5", "L2"), ("2.0 1.0 1.5", "L3"), ("1.0 2.0 3.0", "L2")]
    )
    def test_unsorted_lengths_name_the_first_longer_one(self, tmp_path, capsys, lengths, key):
        l1, l2, l3 = lengths.split()
        text = BASE.replace("L1 = 3.141592653589793", f"L1 = {l1}").replace(
            "L2 = 2.0", f"L2 = {l2}"
        ).replace("L3 = 1.0", f"L3 = {l3}")
        lineno = next(
            i for i, line in enumerate(text.splitlines(), 1) if line.startswith(f"{key} = ")
        )
        path = _write(tmp_path, text)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:{lineno}: edge lengths must be sorted: L1 >= L2 >= L3" in err

    def test_physics_validation_becomes_config_error(self, tmp_path):
        broken = BASE.replace("ubar = 0.5", "ubar = 1.5")
        with pytest.raises(ConfigError, match="ubar"):
            load_config(_write(tmp_path, broken))


class TestClassifyCommand:
    def test_end_to_end_matches_library(self, tmp_path):
        # asymmetric mixture on a cube
        text = BASE.replace("ubar = 0.5", "ubar = 0.1").replace(
            "L2 = 2.0", "L2 = 3.141592653589793"
        ).replace("L3 = 1.0", "L3 = 3.141592653589793")
        cfg_path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["classify", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        p = PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.1)
        d = DomainSpec((math.pi, math.pi, math.pi))
        expected = classify_transition(p, d).as_dict()
        assert report == json.loads(json.dumps(expected))
        assert (out / "report.txt").exists()
        assert (out / "pes.json").exists()
        assert (out / "equilibria.json").exists()

    def test_equal_sigma_continuum_exits_zero(self, tmp_path):
        # 199/176 is the root of sigma1 - sigma2 in gamma at ubar 0.3 on
        # (pi, pi, 1): the report declares the continuum of steady states,
        # which the census check then accepts
        text = BASE.replace("ubar = 0.5", "ubar = 0.3").replace(
            "gamma = 1.0", "gamma = 1.1306818181818186"
        ).replace("L2 = 2.0", "L2 = 3.141592653589793")
        out = tmp_path / "out"
        assert main(["classify", "--config", str(_write(tmp_path, text)), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["m"] == 2
        assert any("continuum" in n for n in report["notes"])
        assert json.loads((out / "equilibria.json").read_text())["matches"]

    @pytest.mark.parametrize("command", ["classify", "simulate"])
    @pytest.mark.parametrize("temp", ["0", "-0.2"])
    def test_nonpositive_temperature_is_refused(self, tmp_path, capsys, command, temp):
        text = BASE.replace("T = 0.24", f"T = {temp}")
        lineno = text.splitlines().index(f"T = {temp}") + 1
        out = tmp_path / "out"
        assert main([command, "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 2
        assert f"run.cfg:{lineno}: bad value for 'T'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_key_exit_code(self, tmp_path, capsys):
        broken = BASE.replace("ubar = 0.5\n", "")
        code = main(
            ["classify", "--config", str(_write(tmp_path, broken)), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "ubar" in capsys.readouterr().err

    def test_no_supercritical_regime_is_numeric_failure(self, tmp_path, capsys):
        text = BASE.replace("gamma = 1.0", "gamma = 0.01")
        code = main(
            ["classify", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "supercritical" in capsys.readouterr().err


class TestReduceCommand:
    def test_zero_stays_zero(self, tmp_path):
        text = BASE + "\n[reduce]\ny0 = 0.0\ndt = 0.01\nsteps = 100\n"
        out = tmp_path / "out"
        assert main(["reduce", "--config", str(_write(tmp_path, text)), "--out", str(out), "--quiet"]) == 0
        rows = [
            line for line in (out / "reduced.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0] == "t,y_1_0_0"
        values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.abs(values[:, 1]).max() == 0.0

    @pytest.mark.parametrize(
        "L2, L3, y0, physical, escaped",
        [
            ("2.0", "1.0", "0.01", {}, False),
            ("3.141592653589793", "1.0", "0.02 -0.01", {}, False),
            # a jump transition: the orbit leaves through the blow-up bound
            ("3.141592653589793", "3.141592653589793", "0.02 0.01 -0.01",
             {"gamma = 1.0": "gamma = 10.0", "ubar = 0.5": "ubar = 0.32", "T = 0.24": "T = 4.0"},
             True),
        ],
    )
    def test_rows_are_the_array_rk4_states(self, tmp_path, L2, L3, y0, physical, escaped):
        # one box per multiplicity (m = 1, 2, 3)
        text = BASE.replace("L2 = 2.0", f"L2 = {L2}").replace("L3 = 1.0", f"L3 = {L3}")
        for key, value in physical.items():
            text = text.replace(key, value)
        text += f"\n[reduce]\ny0 = {y0}\ndt = 0.01\nsteps = 300\nrecord_every = 7\n"
        path, out = _write(tmp_path, text), tmp_path / "out"
        assert main(["reduce", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        cfg = load_config(path)
        p, d = cfg.physical, cfg.domain
        assert d.multiplicity == len(cfg.reduce.y0)
        beta = growth_rate(critical_set(p, d).modes[0], cfg.T, p, d)
        a1, a2 = cubic_coefficients(p, d, T=cfg.T)
        times, states, esc = array_rk4(cfg.reduce.y0, beta, a1, a2, cfg.reduce.dt, 300, 7, 1e6)
        assert esc is escaped
        lines = (out / "reduced.csv").read_text().splitlines()
        assert f"# escaped = {escaped}" in lines
        rows = [line for line in lines if not line.startswith("#")][1:]
        expected = [",".join("%.17g" % v for v in (t, *y)) for t, y in zip(times, states)]
        assert rows == expected
        full = 1 + math.ceil(300 / 7)
        assert 1 < len(rows) < full if escaped else len(rows) == full

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        text = BASE + "\n[reduce]\ny0 = 0.1 0.2\n"
        code = main(
            ["reduce", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2


class TestSimulateCommand:
    def _cfg(self, tmp_path, seed_line="", name="sim.cfg"):
        text = BASE + (
            "\n[simulate]\ngrid = 8\ndt = 0.05\nt_end = 2.0\nrecord_every = 5\n" + seed_line
        )
        return _write(tmp_path, text, name=name)

    def test_writes_trajectory(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(self._cfg(tmp_path)), "--out", str(out),
             "--seed", "3", "--quiet"]
        )
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert any(line.startswith("# seed = 3") for line in lines)
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "t,mass,energy,dissipation,y_1_0_0"
        run = json.loads((out / "run.json").read_text())
        assert run["seed"] == 3
        assert run["max_abs_mass"] <= 1e-12

    def test_reproducible_bytes(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "7", "--quiet"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "7", "--quiet"]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_seeded_modes_and_final_field(self, tmp_path):
        cfg = self._cfg(
            tmp_path, seed_line="seed_modes = 1 0 0 : 0.01\nsave_final_field = true\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        from chtransition.spectral import load_grid

        grid = load_grid(out / "u_final.bin")
        assert grid.shape == (8, 8, 8)

    def test_mobility_that_is_not_positive_exits_one_at_the_first_step(self, tmp_path, capsys):
        # H = 1 - 100*u^2 on the criterion-6 quench seeded at 0.9 of the
        # predicted amplitude 0.2: negative where |u| > 0.1
        p = PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.5)
        T = 0.96 * critical_temperature(p, DomainSpec((math.pi, 2.0, 1.0)))
        text = BASE.replace("T = 0.24", f"T = {T!r}").replace("H0 = 1.0", "H0 = 1.0\nH2 = -200.0")
        text += "\n[simulate]\ngrid = 12\ndt = 0.1\nt_end = 5.0\nseed_modes = 1 0 0 : 0.18\n"
        out = tmp_path / "out"
        cfg = _write(tmp_path, text)
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("numeric failure: Taylor mobility h0 + h1*u + h2/2*u^2 (h0=1, h1=0, "
                              "h2=-200) reaches ")
        assert err.rstrip().endswith("not positive: the equation is not parabolic there "
                                     "(step from t=0)")


class TestSweepCommand:
    def test_slope_near_half(self, tmp_path):
        text = BASE + (
            "\n[simulate]\ngrid = 8\ndt = 0.1\nt_end = 2000\nrecord_every = 200\n"
            "\n[sweep]\nepsilons = 0.02 0.08\nworkers = 2\n"
        )
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(_write(tmp_path, text)), "--out", str(out), "--quiet"]
        )
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["slope"] == pytest.approx(0.5, abs=0.1)
        assert (out / "sweep.csv").exists()

    def test_requires_single_mode(self, tmp_path):
        text = BASE.replace("L2 = 2.0", "L2 = 3.141592653589793")
        code = main(
            ["sweep", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2


class TestValidateCommand:
    def test_small_run(self, tmp_path):
        text = BASE + (
            "\n[simulate]\ngrid = 8\ndt = 0.05\n"
            "\n[validate]\ny0 = 0.02\nrelaxation_times = 0.5\n"
        )
        out = tmp_path / "out"
        code = main(
            ["validate", "--config", str(_write(tmp_path, text)), "--out", str(out), "--quiet"]
        )
        assert code == 0
        payload = json.loads((out / "validate.json").read_text())
        assert payload["relative_deviation"] < 0.05
        assert (out / "validate.csv").exists()


    def test_rows_cover_the_reported_horizon(self, tmp_path):
        # the PDE reaches the steady-state test near t = 280, well before the
        # horizon 15/beta = 375; the comparison still runs to the horizon
        text = BASE + "\n[simulate]\ngrid = 8\ndt = 0.2\n\n[validate]\nrelaxation_times = 15\n"
        out = tmp_path / "out"
        code = main(
            ["validate", "--config", str(_write(tmp_path, text)), "--out", str(out), "--quiet"]
        )
        assert code == 0
        horizon = json.loads((out / "validate.json").read_text())["horizon"]
        rows = np.loadtxt(out / "validate.csv", delimiter=",", comments="#", skiprows=3)
        assert horizon == pytest.approx(375.0, rel=1e-12)
        assert len(rows) == round(horizon / 0.2) + 1
        assert rows[-1, 0] == pytest.approx(horizon, rel=1e-12)


class TestCsvRows:
    def test_python_floats_write_the_bytes_of_numpy_floats(self, tmp_path):
        # the commands write rows from `ndarray.tolist`; the text must be
        # that of the numpy scalars, signed zero, nan, infinities and
        # subnormals included
        values = np.array(
            [[-0.0, 0.0, np.nan], [np.inf, -np.inf, 5e-324], [-2.5e-310, 0.1, -1.5e300]]
        )
        _write_csv(tmp_path / "numpy.csv", ["c"], ["a", "b", "c"], values)
        _write_csv(tmp_path / "python.csv", ["c"], ["a", "b", "c"], values.tolist())
        written = (tmp_path / "python.csv").read_bytes()
        assert written == (tmp_path / "numpy.csv").read_bytes()
        assert b"-0,0,nan\ninf,-inf,4.9406564584124654e-324\n" in written


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["classify", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 2

    def test_out_naming_a_file_is_an_output_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["classify", "--config", str(_write(tmp_path, BASE)), "--out", str(taken)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert str(taken) in err

    def test_calls_in_one_process_parse_independently(self, tmp_path, capsys):
        # the parser is built once per process; each call still gets its own
        # subcommand, options and defaults
        assert _build_parser() is _build_parser()
        cfg = str(_write(tmp_path, BASE + "\n[reduce]\ndt = 0.01\nsteps = 10\n[run]\nseed = 5\n"))
        runs = [
            ("reduce", ["--seed", "11"]),
            ("classify", ["--seed", "3", "--quiet"]),
            ("reduce", ["--quiet"]),
        ]
        for n, (command, extra) in enumerate(runs):
            assert main([command, "--config", cfg, "--out", str(tmp_path / f"o{n}"), *extra]) == 0
        comments = [
            line for line in (tmp_path / "o0" / "reduced.csv").read_text().splitlines()
            if line.startswith("#")
        ]
        assert "# seed = 11" in comments
        assert "# seed = 5" in (tmp_path / "o2" / "reduced.csv").read_text().splitlines()
        assert not (tmp_path / "o1" / "reduced.csv").exists()
        assert (tmp_path / "o1" / "report.json").exists()
        out = capsys.readouterr().out
        assert "reduced trajectory" in out and out.count("\n") == 1
