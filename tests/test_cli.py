import threading
import warnings

import numpy as np
import pytest
from conftest import LAPACK_INSTANCE, run_python

from lgcp_design import cli
from lgcp_design import evaluation as ev
from lgcp_design.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    config_hash,
    enumerate_cells,
    main,
    parse_config,
)


class TestStartup:
    def test_import_skips_scipy_stats_spatial_sparse(self):
        # every CLI call pays the import; no design, Sobol's included, needs
        # scipy.stats, and nothing needs scipy.spatial or scipy.sparse
        code = (
            "import sys, lgcp_design, lgcp_design.cli\n"
            "lgcp_design.sobol(64)\n"
            "print(' '.join(m for m in sys.modules"
            " if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'spatial'], ['scipy', 'sparse'])))"
        )
        assert run_python(code).split() == []

    def test_fit_and_kl_skip_scipy_special(self):
        # the count constants use math.lgamma; modules that numpy and
        # scipy.linalg load themselves are the baseline
        code = (
            "import sys, numpy as np, scipy.linalg\n"
            "baseline = set(sys.modules)\n"
            "import lgcp_design as ld, lgcp_design.cli\n"
            "cov = ld.CovStructure('additive', ld.KernelSpec('matern32', 0.8, 2.0),"
            " ld.KernelSpec('sqexp', 1.5, 2.0))\n"
            "mean = ld.MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0)\n"
            "X = ld.halton(20).points\n"
            "y = np.arange(20.0) % 5\n"
            "ld.kl_lemma1(ld.fit_lgcp(ld.Model(mean, cov, ld.Poisson()), X, y))\n"
            "ld.NegativeBinomial(2.0, np.linspace(0.5, 2.0, 20)).evaluator(y)(np.zeros(20))\n"
            "print(' '.join(m for m in set(sys.modules) - baseline"
            " if m.split('.')[:2] == ['scipy', 'special']))"
        )
        assert run_python(code).split() == []

    def test_linalg_call_sites_skip_scipy_linalg_package(self):
        # the package's __init__ costs about 0.2 s and 18 MB per process; the
        # six routines come from its two extension modules, loaded directly
        code = (
            "import sys\n"
            "import lgcp_design, lgcp_design.cli\n"
            + LAPACK_INSTANCE
            + "print(' '.join(str(m in sys.modules) for m in"
            " ('scipy.linalg', 'scipy.linalg._flapack', 'scipy.linalg._fblas')))"
        )
        assert run_python(code, "-W", "error").split() == ["False", "True", "True"]


class TestConfigParsing:
    def test_repeated_and_multivalue_keys(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "l_t 0.2 0.85\n"
            "l_t 1.5\n"
            "# comment line\n"
            "design halton  # trailing comment\n"
            "n 50\n"
        )
        parsed = parse_config(cfg)
        assert parsed["l_t"] == ["0.2", "0.85", "1.5"]
        assert parsed["design"] == ["halton"]
        assert parsed["n"] == ["50"]

    def test_tab_separated_values(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("M\t7\nl_t\t0.2 \t0.85\n")
        assert parse_config(cfg) == {"M": ["7"], "l_t": ["0.2", "0.85"]}

    def test_hash_stable_and_order_independent(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("x 1\ny 2\n")
        b.write_text("y 2\nx 1\n")
        assert config_hash(parse_config(a)) == config_hash(parse_config(b))
        c = tmp_path / "c.cfg"
        c.write_text("x 1\ny 3\n")
        assert config_hash(parse_config(a)) != config_hash(parse_config(c))


class TestEnumerateCells:
    def test_full_scale_count(self):
        config = {
            "cov_mode": ["separable", "additive"],
            "l_t": ["0.2", "0.85", "1.5"],
            "sigma2_t": ["0.5", "1", "2"],
            "l_s": ["0.2", "0.4", "0.6", "0.8", "1.0", "1.2", "1.4", "1.6"],
            "design": [
                "random", "halton", "sobol", "fibonacci", "min_dran",
                "close_pair", "min_dist", "space_fill",
                "random+rejection", "halton+rejection",
            ],
            "n": ["50", "100", "150"],
            "criterion": ["apv_intensity", "kl"],
        }
        cells = enumerate_cells(config)
        assert len(cells) == 2 * 3 * 3 * 8 * 10 * 3
        # criteria are evaluated within each cell
        assert len(cells) * len(config["criterion"]) == 2 * 3 * 3 * 8 * 10 * 3 * 2

    def test_single_cell(self):
        config = {
            "l_t": ["1.5"], "sigma2_t": ["2"], "l_s": ["0.8"],
            "design": ["halton"], "n": ["20"],
        }
        assert len(enumerate_cells(config)) == 1


class TestDesignCommand:
    def test_generate_then_evaluate_round_trip(self, tmp_path):
        design_csv = tmp_path / "design.csv"
        table_csv = tmp_path / "table.csv"
        assert main([
            "design", "--generator", "halton", "--n", "15", "--out", str(design_csv),
        ]) == EXIT_OK
        lines = design_csv.read_text().splitlines()
        assert lines[0] == "s1,s2,t"
        assert len(lines) == 16
        assert main([
            "evaluate", "--design", str(design_csv), "--criterion", "kl",
            "--M", "4", "--grid-res", "4", "4", "3", "--out", str(table_csv),
        ]) == EXIT_OK
        out = table_csv.read_text().splitlines()
        assert out[0] == "design_name,criterion,estimate,std_error,M,reduction_vs_base_pct"
        assert len(out) == 2

    def test_rejection_generator(self, tmp_path):
        out = tmp_path / "d.csv"
        prov = tmp_path / "d.prov"
        code = main([
            "design", "--generator", "random+rejection", "--n", "10",
            "--seed", "3", "--grid-res", "5", "5", "4",
            "--out", str(out), "--provenance", str(prov),
        ])
        assert code == EXIT_OK
        assert prov.exists()
        assert "random+rejection" in prov.read_text()

    def test_unknown_generator_usage_error(self, tmp_path):
        code = main([
            "design", "--generator", "nope", "--n", "5",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_non_positive_n_usage_error(self, tmp_path, n):
        out = tmp_path / "d.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["design", "--generator", "space_fill", "--n", n, "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert caught == []

    @pytest.mark.parametrize("flag", ["--obs-sigma2", "--obs-r"])
    def test_non_finite_observation_parameter_usage_error(self, tmp_path, flag):
        design_csv = tmp_path / "d.csv"
        assert main([
            "design", "--generator", "halton", "--n", "5", "--out", str(design_csv),
        ]) == EXIT_OK
        obs = "gaussian" if flag == "--obs-sigma2" else "negbin"
        assert main([
            "evaluate", "--design", str(design_csv), "--obs", obs, flag, "nan",
            "--M", "4", "--out", str(tmp_path / "e.csv"),
        ]) == EXIT_USAGE

    def test_zero_close_pairs_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main([
            "design", "--generator", "close_pair", "--n", "20", "--close-pairs", "0",
            "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: need 0 < k < n\n"
        assert not out.exists()

    def test_close_pairs_default_half_of_n(self, tmp_path):
        out, prov = tmp_path / "d.csv", tmp_path / "d.prov"
        assert main([
            "design", "--generator", "close_pair", "--n", "20",
            "--out", str(out), "--provenance", str(prov),
        ]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 21
        assert "k 10" in prov.read_text().splitlines()

    def test_missing_mask_io_error(self, tmp_path):
        code = main([
            "design", "--generator", "random", "--n", "5",
            "--mask", str(tmp_path / "absent.mask"),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize("token", ["x", "2"])
    def test_mask_value_other_than_0_or_1_usage_error(self, tmp_path, capsys, token):
        mask, out = tmp_path / "m.mask", tmp_path / "x.csv"
        mask.write_text(f"2 2 2 0 1 0 1 0 1\n1 1 1 1 1 1 1 {token}\n")
        code = main(["design", "--generator", "random", "--n", "5", "--mask", str(mask),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: mask file {mask}: value 8 is '{token}', not 0 or 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("row", ["0.5,0.5", "0.5,abc,0.5", "0.5,nan,0.5"])
    def test_malformed_design_row_usage_error(self, tmp_path, capsys, row):
        design, out = tmp_path / "d.csv", tmp_path / "e.csv"
        design.write_text(f"s1,s2,t\n0.1,0.2,0.3\n\n{row}\n")
        code = main(["evaluate", "--design", str(design), "--criterion", "kl", "--M", "4",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: design CSV {design}, line 4: expected three finite numbers, got '{row}'\n")
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["design", "--generator", "min_dran", "--n", "12", "--seed", "5"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEvaluateCommand:
    def test_one_fit_per_replicate_for_every_criterion(self, tmp_path, monkeypatch):
        design, out = tmp_path / "d.csv", tmp_path / "e.csv"
        assert main(["design", "--generator", "halton", "--n", "15", "--out", str(design)]) == EXIT_OK
        real = ev.lgcp.fit_lgcp
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "fit_lgcp", counted)
        assert main([
            "evaluate", "--design", str(design), "--criterion", "apv_latent",
            "--criterion", "apv_intensity", "--criterion", "kl", "--M", "5",
            "--grid-res", "4", "4", "3", "--out", str(out),
        ]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["apv_latent", "apv_intensity", "kl"]
        assert [row.split(",")[4] for row in rows] == ["5"] * 3
        assert len(calls) == 5

    def test_empty_design_usage_error(self, tmp_path, capsys):
        design, out = tmp_path / "d.csv", tmp_path / "e.csv"
        design.write_text("s1,s2,t\n")
        code = main(["evaluate", "--design", str(design), "--criterion", "kl", "--M", "4",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: design CSV {design} holds no points\n"
        assert not out.exists()

    @pytest.mark.parametrize("masked", [False, True])
    def test_point_outside_the_domain_usage_error(self, tmp_path, capsys, masked):
        # point 2 lies outside the unit cube, or in its one masked-out cell
        design, out = tmp_path / "d.csv", tmp_path / "e.csv"
        bad = "0.75,0.75,0.75" if masked else "5,5,5"
        design.write_text(f"s1,s2,t\n0.5,0.5,0.5\n{bad}\n0.25,0.25,0.25\n")
        args = ["evaluate", "--design", str(design), "--criterion", "kl", "--M", "4",
                "--out", str(out)]
        if masked:
            mask = tmp_path / "m.mask"
            mask.write_text("2 2 2 0 1 0 1 0 1\n1 1 1 1 1 1 1 0\n")
            args += ["--mask", str(mask)]
        assert main(args) == EXIT_USAGE
        point = "(0.75, 0.75, 0.75)" if masked else "(5.0, 5.0, 5.0)"
        assert capsys.readouterr().err == (
            f"error: design CSV {design}: point 2 {point} lies outside the evaluation domain\n")
        assert not out.exists()


SIMSTUDY_CONFIG = (
    "cov_mode additive\n"
    "l_t 1.5\n"
    "sigma2_t 2\n"
    "l_s 0.6 0.8\n"
    "design halton\n"
    "n 15\n"
    "criterion apv_latent\n"
    "M 4\n"
    "seed 7\n"
    "grid_resolution 5 5 4\n"
)


class TestSimstudy:
    def test_outputs_and_rerun_identical(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SIMSTUDY_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simstudy", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simstudy", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        for name in ("cells.csv", "aggregated.csv"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
        lines = (out1 / "cells.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert len(lines) == 4  # hash + header + 2 cells

    def test_runs_on_calling_thread(self, tmp_path, monkeypatch):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SIMSTUDY_CONFIG)
        out_plain, out_env = tmp_path / "plain", tmp_path / "env"
        monkeypatch.delenv("LGCP_DESIGN_THREADS", raising=False)
        assert main(["simstudy", "--config", str(cfg), "--out", str(out_plain)]) == EXIT_OK

        real = ev._replicates
        threads = []

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(ev, "_replicates", recording)
        monkeypatch.setenv("LGCP_DESIGN_THREADS", "4")
        assert main(["simstudy", "--config", str(cfg), "--out", str(out_env)]) == EXIT_OK
        assert threads == [threading.get_ident()] * 2
        for name in ("cells.csv", "aggregated.csv"):
            assert (out_plain / name).read_bytes() == (out_env / name).read_bytes()

    def test_aggregation_averages_over_spatial_lengthscale(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SIMSTUDY_CONFIG)
        out = tmp_path / "r"
        main(["simstudy", "--config", str(cfg), "--out", str(out)])
        cell_lines = [
            line for line in (out / "cells.csv").read_text().splitlines()
            if not line.startswith(("#", "cov_mode"))
        ]
        estimates = [float(line.split(",")[7]) for line in cell_lines]
        agg_lines = [
            line for line in (out / "aggregated.csv").read_text().splitlines()
            if not line.startswith(("#", "cov_mode"))
        ]
        assert len(agg_lines) == 1
        agg_est = float(agg_lines[0].split(",")[6])
        assert agg_est == pytest.approx(np.mean(estimates), abs=1e-12)

    def test_uncastable_config_value_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SIMSTUDY_CONFIG + "M fifty\n")
        assert main([
            "simstudy", "--config", str(cfg), "--out", str(tmp_path / "o"),
        ]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'M'" in err and "'fifty'" in err

    def test_unknown_criterion_rejected_before_first_cell(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(ev, "_replicates", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SIMSTUDY_CONFIG + "criterion apv_intensity KL\n")
        assert main([
            "simstudy", "--config", str(cfg), "--out", str(tmp_path / "o"),
        ]) == EXIT_USAGE
        assert calls == []

    @pytest.mark.parametrize("line, message", [
        ("design halton bogus\n", "unknown generator 'bogus'"),
        ("design halton bogus+rejection\n", "unknown rejection base 'bogus'"),
    ])
    def test_unknown_design_rejected_before_first_cell(self, tmp_path, monkeypatch, capsys,
                                                       line, message):
        calls = []
        monkeypatch.setattr(ev, "_replicates", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SIMSTUDY_CONFIG.replace("design halton\n", line))
        out = tmp_path / "o"
        assert main(["simstudy", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "l_t nan\n", "l_s 0\n", "sigma2_t inf\n", "sigma2_s -1\n",
    ])
    def test_bad_kernel_value_rejected_before_first_cell(self, tmp_path, monkeypatch, capsys,
                                                         line):
        # the bad value comes after good ones, so its cells would run last
        calls = []
        monkeypatch.setattr(ev, "_replicates", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SIMSTUDY_CONFIG + line)
        out = tmp_path / "o"
        assert main(["simstudy", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: lengthscale and variance must be positive and finite\n"
        )
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "line", ["criterion KL\n", "M fifty\n", "l_t short\n", "n 0\n", "M 1\n"]
    )
    def test_usage_error_leaves_no_output_directory(self, tmp_path, line):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SIMSTUDY_CONFIG + line)
        out = tmp_path / "o"
        assert main(["simstudy", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("line", ["M 4\n", "design halton\n"])
    def test_key_without_value_is_usage_error(self, tmp_path, line, capsys):
        cfg = tmp_path / "s.cfg"
        key = line.split()[0]
        cfg.write_text(SIMSTUDY_CONFIG.replace(line, key + "\n"))
        out = tmp_path / "o"
        assert main(["simstudy", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert f"config key {key!r} has no value" in capsys.readouterr().err

    def test_missing_config_io_error(self, tmp_path):
        assert main([
            "simstudy", "--config", str(tmp_path / "none.cfg"),
            "--out", str(tmp_path / "o"),
        ]) == EXIT_IO


class TestMaskedPipeline:
    def test_mask_flows_through_design_command(self, tmp_path):
        from lgcp_design import Domain, is_admissible, load_design, save_mask_file

        mask = np.ones((4, 4, 2), dtype=bool)
        mask[2:, 2:, :] = False
        domain = Domain(np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]), mask)
        mask_path = tmp_path / "m.mask"
        save_mask_file(mask_path, domain)
        out = tmp_path / "d.csv"
        code = main([
            "design", "--generator", "random", "--n", "30", "--seed", "0",
            "--mask", str(mask_path), "--out", str(out),
        ])
        assert code == EXIT_OK
        des = load_design(out)
        assert np.all(is_admissible(des.points, domain))


class TestGeneratorTable:
    def test_every_name_dispatches(self):
        from lgcp_design import InclusionProbability, discretize, unit_cube

        grid = discretize(unit_cube(), (5, 5, 4))
        incl = InclusionProbability.constant(0.5)
        names = set(cli._GENERATORS)
        assert names == {
            "random", "halton", "sobol", "fibonacci", "min_dran", "close_pair", "min_dist",
            "space_fill", "random+rejection", "halton+rejection", "sobol+rejection",
            "fibonacci+rejection", "space_fill+rejection",
        }
        for name in sorted(names):
            design = cli.generate_design(name, 8, unit_cube(), 3, grid=grid, incl=incl)
            assert design.points.shape == (8, 3), name

    @pytest.mark.parametrize("name, message", [
        ("min_dist", "min_dist needs a grid"),
        ("space_fill", "space_fill needs a candidate grid"),
        ("halton+rejection", "rejection designs need an inclusion probability"),
        ("space_fill+rejection", "rejection designs need an inclusion probability"),
    ])
    def test_missing_inputs(self, name, message):
        from lgcp_design import LgcpDesignError, unit_cube

        with pytest.raises(LgcpDesignError, match=message):
            cli.generate_design(name, 8, unit_cube(), 3)
