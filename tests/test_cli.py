import argparse
import dataclasses
import math
import re
import time
import warnings

import numpy as np
import pytest

from wcreg.cli import COMMANDS, _scaled_truth, builtin_truth, main, read_csv_table
from wcreg.config import ExperimentConfig, _key
from wcreg.grid import read_grid_csv, write_grid_csv
from wcreg import (CompactumSpec, GridFunction, LatticeCompactum, add_noise, holder_norm,
                   integrate, modulus_bruteforce, read_pair_csv, regularize)
from wcreg.errors import ConfigError


def run_cli(*args):
    return main(list(args))


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestBuiltinTruths:
    def test_catalog(self):
        assert np.allclose(builtin_truth("quadratic", 11).values, np.linspace(0, 1, 11))
        assert np.all(builtin_truth("constant", 11).values == 1.0)
        assert builtin_truth("abs-shift", 11).values[0] == pytest.approx(0.5)
        sine = builtin_truth("sine(2)", 101)
        assert sine.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_rejected(self):
        with pytest.raises(Exception):
            builtin_truth("cubic", 11)


class TestDifferentiateCommand:
    def test_summary_values(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("differentiate", "--truth", "quadratic", "--delta", "1e-4",
                       "--a", "2", "--m", "1", "--noise", "alternating-worst-case",
                       "--out", str(out))
        assert code == 0
        header, rows, _ = read_csv_table(out / "summary.csv")
        assert header == ["delta", "h", "eta"]
        delta, h, eta = rows[0]
        assert delta == 1e-4
        assert h == pytest.approx(0.01, rel=1e-12)
        assert eta == pytest.approx(0.02, rel=1e-12)
        recon = read_grid_csv(out / "reconstruction.csv")
        assert recon.n == 1001

    def test_external_input_file(self, tmp_path):
        g = integrate(GridFunction(np.linspace(0, 1, 201)))
        src = tmp_path / "g.csv"
        write_grid_csv(g, src)
        out = tmp_path / "out"
        code = run_cli("differentiate", "--input", str(src), "--delta", "1e-4",
                       "--a", "2", "--m", "1", "--out", str(out))
        assert code == 0

    def test_missing_input_exit_2(self, tmp_path):
        code = run_cli("differentiate", "--input", str(tmp_path / "nope.csv"),
                       "--delta", "1e-4", "--out", str(tmp_path / "o"))
        assert code == 2

    def test_ragged_input_exit_3(self, tmp_path, capsys):
        src = tmp_path / "ragged.csv"
        src.write_text("x,value\n0,0\n0.5,0.125,1\n1,0.5\n")
        code = run_cli("differentiate", "--input", str(src), "--delta", "1e-3",
                       "--out", str(tmp_path / "o"))
        assert code == 3
        assert f"{src}: line 3 has 3 cells" in capsys.readouterr().err

    def test_four_node_input_exit_3(self, tmp_path, capsys):
        # spacing 1/3 exceeds the longest admissible step
        src = tmp_path / "four.csv"
        write_grid_csv(integrate(GridFunction(np.linspace(0, 1, 4))), src)
        code = run_cli("differentiate", "--input", str(src), "--delta", "1e-3",
                       "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("wcreg: error: grid spacing 0.333")
        assert err.endswith("exceeds the maximal step 0.25\n")

    def test_builtin_truth_lies_in_class(self, tmp_path):
        # u = x has a = 2 norm 2 > m = 1, so the command rescales it by
        # 0.8 / norm to slope 0.4 (the float norm reads 2 + 1.1e-10).  Exact
        # data of s*x give slope s in every zone: the symmetric quotient
        # reads s*x, the one-sided ones s*(x + h) and s*(x - h)
        out = tmp_path / "out"
        assert run_cli("differentiate", "--delta", "1e-3", "--noise", "none",
                       "--out", str(out)) == 0
        recon = read_grid_csv(out / "reconstruction.csv")
        slope = 0.8 / holder_norm(builtin_truth("quadratic", recon.n), 2.0)
        assert abs(slope - 0.4) <= 1e-10
        h = read_csv_table(out / "summary.csv")[1][0][1]
        m = round(h * (recon.n - 1))
        shift = np.zeros(recon.n)
        shift[:m], shift[recon.n - m:] = h, -h
        assert np.max(np.abs(recon.values - slope * (recon.x + shift))) <= 1e-12

    def test_a_not_above_one_exit_2(self, tmp_path, capsys):
        code = run_cli("differentiate", "--truth", "quadratic", "--delta", "1e-4",
                       "--a", "1", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "a > 1" in capsys.readouterr().err

    def test_input_file_ignores_data_flags(self, tmp_path, capsys):
        # with --input, the flags that make synthetic data are warned about
        # and their rules are not applied, whether --input is a flag or a key
        src = tmp_path / "g.csv"
        write_grid_csv(integrate(GridFunction(np.linspace(0, 1, 11))), src)
        (tmp_path / "in.cfg").write_text(f"input = {src}\n")
        assert run_cli("differentiate", "--input", str(src), "--delta", "1e-3",
                       "--out", str(tmp_path / "plain")) == 0
        assert capsys.readouterr().err == ""
        unread = ["--truth", "nope", "--noise", "pink", "--seed", "-1", "--grid", "3"]
        for name, source in (("flag", ["--input", str(src)]),
                             ("key", ["--config", str(tmp_path / "in.cfg")])):
            assert run_cli("differentiate", *source, "--delta", "1e-3", *unread,
                           "--out", str(tmp_path / name)) == 0
            assert read_bytes_tree(tmp_path / name) == read_bytes_tree(tmp_path / "plain")
            assert capsys.readouterr().err == "".join(
                f"wcreg: warning: differentiate ignores {flag}\n"
                for flag in ("--seed", "--grid", "--truth", "--noise"))
        # without an input file the same flags are read and checked
        assert run_cli("differentiate", "--delta", "1e-3", "--noise", "pink",
                       "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "wcreg: config error: unknown noise model 'pink'\n"


class TestSweepCommand:
    def test_eta_slope_exact(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("sweep", "--deltas", "1e-2,1e-3,1e-4,1e-5", "--a", "2",
                       "--m", "1", "--noise", "alternating-worst-case", "--out", str(out))
        assert code == 0
        header, rows, meta = read_csv_table(out / "sweep.csv")
        assert header == ["delta", "h", "eta", "sup_err_est"]
        assert meta["eta_loglog_slope"] == pytest.approx(0.5, abs=1e-12)
        for delta, h, eta, est in rows:
            assert eta == pytest.approx(2 * np.sqrt(delta), rel=1e-12)
            assert est <= eta

    @pytest.mark.parametrize("flags", [
        ("--deltas", "1e-2,1e-3,1e-4", "--seed", "3"),
        ("--deltas", "1e-2,1e-3", "--a", "1.5", "--noise", "alternating",
         "--truth", "abs-shift", "--grid", "161"),
        ("--deltas", "1e-1,1e-3", "--a", "1.3", "--m", "2", "--truth", "sine(1)",
         "--grid", "201", "--seed", "7"),
    ], ids=["a2", "a1.5-alt-abs", "a1.3-sine"])
    def test_err_is_the_truths_error(self, tmp_path, flags):
        # sup_err_est is sup|R(g) - u|, R(g) recomputed on the noise child of
        # each delta, and it lies within that result's eta
        out = tmp_path / "out"
        assert run_cli("sweep", *flags, "--out", str(out)) == 0
        _, rows, _ = read_csv_table(out / "sweep.csv")
        cfg = ExperimentConfig().updated({k[2:]: v for k, v in zip(flags[::2], flags[1::2])})
        spec = CompactumSpec("holder-norm", cfg.m, a=cfg.a)
        u = _scaled_truth(cfg, cfg.grid or 641, spec)
        children = np.random.SeedSequence(cfg.seed).spawn(2 * len(rows))
        for i, (delta, _, _, err) in enumerate(rows):
            result = regularize(add_noise(integrate(u), delta, cfg.noise, children[2 * i]), spec)
            assert err == np.max(np.abs(result.u_delta.values - u.values))
            assert err <= result.eta

    def test_count_is_ignored(self, tmp_path, capsys):
        # the benchmark's --count 20 exits 0, warns, and changes no byte
        flags = ["--deltas", "1e-2,1e-3", "--grid", "101", "--seed", "2"]
        assert run_cli("sweep", *flags, "--out", str(tmp_path / "plain")) == 0
        assert capsys.readouterr().err == ""
        assert run_cli("sweep", *flags, "--count", "20", "--out", str(tmp_path / "count")) == 0
        assert capsys.readouterr().err == "wcreg: warning: sweep ignores --count\n"
        assert read_bytes_tree(tmp_path / "count") == read_bytes_tree(tmp_path / "plain")

    def test_repeated_delta_slopes_nan(self, tmp_path, capsys):
        # one distinct delta fits no line, as one delta does not
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("sweep", "--deltas", "1e-2,1e-2", "--grid", "21", "--out", str(out))
        assert code == 0
        assert capsys.readouterr().err == ""
        _, rows, meta = read_csv_table(out / "sweep.csv")
        assert len(rows) == 2
        assert math.isnan(meta["eta_loglog_slope"]) and math.isnan(meta["err_loglog_slope"])

    def test_single_delta_exit_2(self, tmp_path):
        assert run_cli("sweep", "--deltas", "1e-2", "--a", "2",
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-file"])
    def test_out_names_a_file_exit_3(self, tmp_path, capsys, under):
        (tmp_path / "taken").write_text("")
        out = tmp_path.joinpath("taken", *under)
        assert run_cli("sweep", "--deltas", "1e-2,1e-3", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"wcreg: error: \[Errno \d+\] [^\n]*\n", err)
        assert "Traceback" not in err


class TestAdversaryCommand:
    def test_sup_class_constant_separation(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("adversary", "--class", "sup", "--m", "1",
                       "--deltas", "1e-2,1e-3", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv_table(out / "diameters.csv")
        for _, sep in rows:
            assert sep == pytest.approx(1.0, abs=0.02)

    def test_lip_class_sqrt_slope(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("adversary", "--class", "lip", "--m", "2",
                       "--deltas", "1e-2,1e-3,1e-4,1e-5", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv_table(out / "diameters.csv")
        deltas = np.array([r[0] for r in rows])
        seps = np.array([r[1] for r in rows])
        slope = np.polyfit(np.log(deltas), np.log(seps), 1)[0]
        assert abs(slope - 0.5) <= 0.05

    def test_lip_class_large_grid(self, tmp_path):
        # delta = 1e-7 auto-selects n = 17,897 nodes (1.6e8 node pairs); the
        # norm scans must stay far from quadratic time
        out = tmp_path / "out"
        start = time.perf_counter()
        code = run_cli("adversary", "--class", "lip", "--m", "1",
                       "--deltas", "1e-7", "--out", str(out))
        assert time.perf_counter() - start < 5.0
        assert code == 0
        pair = read_pair_csv(out / "pair_000.csv")
        assert pair.v1.n == 17_897
        h = 1.0 / (pair.v1.n - 1)
        for v in (pair.v1.values, pair.v2.values):
            image = np.concatenate(([0.0], np.cumsum((v[1:] + v[:-1]) * (0.5 * h))))
            assert np.max(np.abs(image)) <= 1e-7
            # sup plus the largest adjacent slope is the Lipschitz norm of a
            # piecewise-linear function in real arithmetic, hence the tolerance
            lip = np.max(np.abs(v)) + np.max(np.abs(np.diff(v))) / h
            assert lip <= 1.0 * (1.0 + 1e-9)

    def test_sup_default_grid_ceiling_exit_3(self, tmp_path, capsys):
        # k = 3,183,099 would need a default grid of 63.7 M nodes: refused
        # before anything of that size is allocated
        start = time.perf_counter()
        code = run_cli("adversary", "--class", "sup", "--m", "1",
                       "--deltas", "1e-7", "--out", str(tmp_path / "o"))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().err == (
            "wcreg: error: frequency k=3183099 needs a default grid of 63661981 nodes, "
            "above the 2000001-node ceiling; give the grid explicitly\n")
        assert list((tmp_path / "o").iterdir()) == []

    def test_unknown_class_exit_2(self, tmp_path):
        assert run_cli("adversary", "--class", "huber", "--m", "1",
                       "--deltas", "1e-2", "--out", str(tmp_path / "o")) == 2


class TestVariationalCommand:
    def test_empty_deltas_empty_table(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("variational", "--truth", "constant", "--deltas", "",
                       "--phi", "sup-norm", "--c", "2", "--out", str(out))
        assert code == 0
        header, rows, _ = read_csv_table(out / "convergence.csv")
        assert header[0] == "delta"
        assert rows == []

    def test_truth_outside_compactum_exit_3(self, tmp_path):
        code = run_cli("variational", "--truth", "constant", "--deltas", "1e-1",
                       "--phi", "sup-norm", "--c", "0.5", "--out", str(tmp_path / "o"))
        assert code == 3

    def test_header_columns(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("variational", "--truth", "constant", "--deltas", "1e-1",
                       "--phi", "sup-norm", "--c", "2", "--grid", "21", "--out", str(out)) == 0
        header, rows, _ = read_csv_table(out / "convergence.csv")
        assert header == ["delta", "misfit", "phi", "objective", "sup_err_truth"]
        assert len(rows) == 1 and len(rows[0]) == 5

    def test_warns_for_each_row_above_its_certificate(self, tmp_path, capsys):
        # phi(u) = 1.5: the rows at 1e-3 and 1e-4 end above 2(1+phi(u))delta
        out = tmp_path / "out"
        assert run_cli("variational", "--truth", "abs-shift", "--phi", "holder-norm",
                       "--a", "1", "--c", "10", "--grid", "201",
                       "--deltas", "1e-1,1e-2,1e-3,1e-4", "--out", str(out)) == 0
        rows = read_csv_table(out / "convergence.csv")[1]
        phi_u = holder_norm(builtin_truth("abs-shift", 201), 1.0)
        assert phi_u == pytest.approx(1.5, rel=1e-14)
        bounds = [2.0 * (1.0 + phi_u) * row[0] for row in rows]
        assert [row[3] > bound for row, bound in zip(rows, bounds)] == [False, False,
                                                                        True, True]
        assert capsys.readouterr().err == "".join(
            f"wcreg: warning: at delta {row[0]!r} the objective F = {row[3]!r} exceeds "
            f"the certificate 2(1+phi(u))delta = {bound!r}\n"
            for row, bound in zip(rows[2:], bounds[2:]))


class TestModulusCommand:
    def test_constants_pattern(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("modulus", "--phi", "sup-norm", "--c", "1", "--levels", "21",
                       "--lattice-nodes", "5", "--constants-only", "true",
                       "--deltas", "0.05,0.15,0.35,2.5", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv_table(out / "modulus.csv")
        table = {round(d, 3): om for d, om in rows}
        assert table[0.05] == 0.0
        assert table[0.15] == pytest.approx(0.1, abs=1e-12)
        assert table[0.35] == pytest.approx(0.3, abs=1e-12)
        assert table[2.5] == pytest.approx(2.0, abs=1e-12)

    def test_bruteforce_mode_is_the_default(self, tmp_path):
        # the benchmark workload's flags, with and without --mode
        flags = ["--phi", "sup-norm", "--c", "1", "--lattice-nodes", "4", "--levels", "8",
                 "--deltas", "1e-2,1e-3"]
        assert run_cli("modulus", *flags[:4], "--mode", "bruteforce", *flags[4:],
                       "--out", str(tmp_path / "with")) == 0
        assert run_cli("modulus", *flags, "--out", str(tmp_path / "without")) == 0
        assert read_bytes_tree(tmp_path / "with") == read_bytes_tree(tmp_path / "without")

    def test_ignored_flags_named_on_stderr(self, tmp_path, capsys):
        flags = ["--levels", "3", "--deltas", "0.5"]
        assert run_cli("modulus", *flags, "--out", str(tmp_path / "plain")) == 0
        assert capsys.readouterr().err == ""
        assert run_cli("modulus", "--m", "0", "--seed", "5", "--count", "0",
                       "--truth", "nope", *flags, "--out", str(tmp_path / "extra")) == 0
        err = capsys.readouterr().err
        assert read_bytes_tree(tmp_path / "extra") == read_bytes_tree(tmp_path / "plain")
        for flag in ("--m", "--seed", "--count", "--truth"):
            assert f"modulus ignores {flag}\n" in err
        assert len(err.splitlines()) == 4

    def test_rules_of_unread_fields_not_applied(self, tmp_path, capsys):
        flags = ["--levels", "3", "--deltas", "0.5"]
        assert run_cli("modulus", *flags, "--out", str(tmp_path / "plain")) == 0
        assert run_cli("modulus", "--grid", "3", "--noise", "pink", *flags,
                       "--out", str(tmp_path / "extra")) == 0
        assert read_bytes_tree(tmp_path / "extra") == read_bytes_tree(tmp_path / "plain")
        assert capsys.readouterr().err == ("wcreg: warning: modulus ignores --grid\n"
                                           "wcreg: warning: modulus ignores --noise\n")
        assert run_cli("sweep", "--deltas", "1e-2,1e-3", "--grid", "3",
                       "--out", str(tmp_path / "sweep")) == 2
        assert "grid must have at least 5 nodes" in capsys.readouterr().err

    def test_default_lattice(self, tmp_path):
        # 9,261 members give 42,878,430 member pairs, above the pair guard,
        # but the scan reaches the widest range within its first step
        out = tmp_path / "out"
        assert run_cli("modulus", "--deltas", "0.5", "--out", str(out)) == 0
        _, rows, _ = read_csv_table(out / "modulus.csv")
        assert rows == [[0.5, 2.0]]

    @pytest.mark.parametrize("deltas", ["0.5,1e-3", "10,1e-3"])
    def test_default_lattice_wide_and_narrow_deltas(self, tmp_path, deltas):
        # the narrow delta's ring is scanned first and meets an alternating
        # pair; the wide delta then has the widest range at once
        out = tmp_path / "out"
        assert run_cli("modulus", "--deltas", deltas, "--out", str(out)) == 0
        _, rows, _ = read_csv_table(out / "modulus.csv")
        assert rows == [[float(d), 2.0] for d in deltas.split(",")]

    def test_one_scan_per_command(self, tmp_path, monkeypatch):
        calls = {"scan": 0, "members": 0}
        members = LatticeCompactum.members

        def counted_scan(*args):
            calls["scan"] += 1
            return modulus_bruteforce(*args)

        def counted_members(self):
            calls["members"] += 1
            return members(self)

        monkeypatch.setattr("wcreg.cli.modulus_bruteforce", counted_scan)
        monkeypatch.setattr(LatticeCompactum, "members", counted_members)
        assert run_cli("modulus", "--lattice-nodes", "4", "--levels", "8",
                       "--deltas", "1e-3,0.5,1e-2,0.5", "--out", str(tmp_path / "o")) == 0
        assert calls == {"scan": 1, "members": 1}
        _, rows, _ = read_csv_table(tmp_path / "o" / "modulus.csv")
        assert [d for d, _ in rows] == [0.5, 0.5, 1e-2, 1e-3]

    def test_search_mode_exit_2(self, tmp_path, capsys):
        assert run_cli("modulus", "--mode", "search", "--deltas", "0.5",
                       "--out", str(tmp_path / "o")) == 2
        assert "mode must be 'bruteforce', got 'search'" in capsys.readouterr().err


class TestHolderExponentRange:
    """An exponent a outside (0, 2] is a configuration error wherever a
    Holder class reads it."""

    @pytest.mark.parametrize("args", [
        ["differentiate", "--delta", "1e-3", "--a", "3"],
        ["sweep", "--deltas", "1e-2,1e-3", "--a", "2.5"],
        ["variational", "--phi", "holder-norm", "--a", "3", "--deltas", "1e-2"],
        ["modulus", "--phi", "holder-norm", "--a", "0", "--deltas", "0.5"],
    ], ids=["differentiate", "sweep", "variational", "modulus"])
    def test_out_of_range_exit_2(self, tmp_path, capsys, args):
        assert run_cli(*args, "--out", str(tmp_path / "o")) == 2
        assert "config error: Holder exponent a must lie in (0, 2]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["differentiate", "--delta", "1e-3", "--a", "0"],
        ["sweep", "--deltas", "1e-2,1e-3", "--a", "-1"],
    ], ids=["differentiate", "sweep"])
    def test_step_rule_reported_first(self, tmp_path, capsys, args):
        assert run_cli(*args, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "wcreg: config error: the step rule requires a > 1\n"

    @pytest.mark.parametrize("args", [
        ["variational", "--phi", "sup-norm", "--c", "2", "--deltas", "1e-1", "--grid", "41"],
        ["modulus", "--phi", "sup-norm", "--levels", "3", "--deltas", "0.5"],
    ], ids=["variational", "modulus"])
    def test_sup_norm_ignores_a(self, tmp_path, capsys, args):
        assert run_cli(*args, "--a", "3", "--out", str(tmp_path / "a3")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "plain")) == 0
        assert read_bytes_tree(tmp_path / "a3") == read_bytes_tree(tmp_path / "plain")
        assert capsys.readouterr().err == ""


class TestNonFiniteBounds:
    """An infinite bound is a configuration error wherever a command reads it."""

    @pytest.mark.parametrize("args, flag", [
        (["differentiate", "--delta", "inf"], "--delta"),
        (["sweep", "--deltas", "inf,1e-2"], "--deltas"),
        (["adversary", "--m", "inf", "--deltas", "1e-2"], "--m"),
        (["sweep", "--deltas", "1e-2,1e-3", "--m", "inf"], "--m"),
        (["variational", "--c", "inf", "--deltas", "1e-2"], "--c"),
        (["differentiate", "--delta", "1e-3", "--m", "inf"], "--m"),
        (["modulus", "--deltas", "0.5,inf"], "--deltas"),
    ], ids=["diff-delta", "sweep-deltas", "adv-m", "sweep-m", "var-c", "diff-m", "mod-deltas"])
    def test_exit_2(self, tmp_path, capsys, args, flag):
        assert run_cli(*args, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"wcreg: config error: {flag} must be finite\n"
        assert not (tmp_path / "o").exists()

    def test_sign_rules_reported_first(self, tmp_path, capsys):
        assert run_cli("differentiate", "--delta", "inf", "--m", "0",
                       "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "wcreg: config error: class bound m must be positive\n"


class TestNegativeSeed:
    """A negative seed is a configuration error for every command that reads it."""

    @pytest.mark.parametrize("args", [
        ["differentiate", "--delta", "1e-3"],
        ["sweep", "--deltas", "1e-2,1e-3"],
        ["variational", "--deltas", "1e-2"],
    ], ids=["differentiate", "sweep", "variational"])
    def test_exit_2(self, tmp_path, capsys, args):
        assert run_cli(*args, "--seed", "-1", "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "wcreg: config error: seed must be nonnegative\n"
        assert not (tmp_path / "o").exists()


class TestConfigHandling:
    def test_fields_are_read_only(self):
        cfg = ExperimentConfig()
        with pytest.raises(AttributeError):
            cfg.seed = 3
        with pytest.raises(AttributeError):
            cfg.sigma = 3
        assert cfg.seed == 0

    def test_not_a_dataclass(self):
        assert not dataclasses.is_dataclass(ExperimentConfig)

    def test_field_order_is_file_and_help_order(self, capsys):
        assert ExperimentConfig._fields[0] == "command"
        assert run_cli("--help") == 0
        options = capsys.readouterr().out.partition("options:")[2]
        assert re.findall(r"^  (--[\w-]+)", options, re.M) == ["--config"] + [
            "--" + key for key in config_keys()]

    def test_updated_with_typed_values(self):
        base = ExperimentConfig(command="sweep", seed=5)
        cfg = base.updated({"seed": 7, "deltas": (1e-2, 1e-3), "class": "lip",
                            "lattice-nodes": 4, "constants_only": True, "a": "1.5"})
        assert type(cfg) is ExperimentConfig
        assert (cfg.seed, cfg.deltas, cfg.class_kind, cfg.lattice_nodes, cfg.constants_only,
                cfg.a) == (7, (1e-2, 1e-3), "lip", 4, True, 1.5)
        assert cfg.command == "sweep" and cfg.count == 100
        assert base.seed == 5

    @pytest.mark.parametrize("key", ["sigma", "class-kind-x", "_fields"])
    def test_updated_rejects_unknown_key(self, key):
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key {key!r}")):
            ExperimentConfig().updated({"seed": 1, key: "3"})

    def test_file_plus_flag_override(self, tmp_path):
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text("# demo\ntruth = quadratic\ndelta = 1e-4\na = 2\nm = 1\n")
        out = tmp_path / "out"
        code = run_cli("differentiate", "--config", str(cfg_path),
                       "--delta", "1e-2", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv_table(out / "summary.csv")
        assert rows[0][0] == 1e-2  # flag wins over file

    @pytest.mark.parametrize("spelling", ["yes", "no", "1", "0", "True", "FALSE", "maybe"])
    def test_flags_and_files_share_spellings(self, tmp_path, capsys, spelling):
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text(f"constants-only = {spelling}\nlevels = 9\nc = 1e0\n"
                            "deltas = 0.5, 0.1\n")
        from_file = run_cli("modulus", "--config", str(cfg_path), "--out", str(tmp_path / "f"))
        file_err = capsys.readouterr().err
        from_flags = run_cli("modulus", "--constants-only", spelling, "--levels", "9",
                             "--c", "1e0", "--deltas", "0.5, 0.1", "--out", str(tmp_path / "g"))
        assert (from_flags, capsys.readouterr().err) == (from_file, file_err)
        if spelling == "maybe":
            assert from_file == 2
            assert "bad value for 'constants_only': 'maybe'" in file_err
        else:
            assert from_file == 0
            assert read_bytes_tree(tmp_path / "f") == read_bytes_tree(tmp_path / "g")

    def test_unknown_key_exit_2(self, tmp_path):
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text("sigma = 3\n")
        assert run_cli("differentiate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o")) == 2


def config_keys():
    """Every config-file key, in field order."""
    return [_key(name) for name in ExperimentConfig._fields if name != "command"]


def subparser_parser(keys):
    """The former parser, one identical subparser per command: the reference
    for the final line argparse prints when it rejects a command line."""
    parser = argparse.ArgumentParser(prog="wcreg", description="worst-case regularization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        for key in keys:
            p.add_argument("--" + key)
    return parser


class TestParser:
    def test_help_lists_each_flag_once(self, capsys):
        assert run_cli("--help") == 0
        usage, _, options = capsys.readouterr().out.partition("options:")
        keys = config_keys()
        assert len(keys) == 18
        for flag in ["--config"] + ["--" + key for key in keys]:
            pattern = rf"(?<![\w-]){re.escape(flag)}(?![\w-])"
            assert len(re.findall(pattern, usage)) == 1, flag
            assert len(re.findall(pattern, options)) == 1, flag

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["sweep", "--deltas", "1e-2,1e-3", "--bogus", "1"],
    ], ids=["missing-command", "unknown-command", "unknown-flag"])
    def test_rejections_keep_final_error_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            subparser_parser(config_keys()).parse_args(argv)
        assert exc.value.code == 2
        expected = capsys.readouterr().err.splitlines()[-1]
        assert expected.startswith("wcreg: error: ")
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == expected

    def test_budget_is_not_an_option(self, tmp_path, capsys):
        # the solver has no iteration budget: the flag and the file key are unknown
        assert run_cli("variational", "--budget", "20", "--deltas", "1e-1",
                       "--out", str(tmp_path / "flag")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "wcreg: error: unrecognized arguments: --budget 20")
        cfg_path = tmp_path / "v.cfg"
        cfg_path.write_text("budget = 20\n")
        assert run_cli("variational", "--config", str(cfg_path), "--deltas", "1e-1",
                       "--out", str(tmp_path / "file")) == 2
        assert capsys.readouterr().err == "wcreg: config error: unknown config key 'budget'\n"
        assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()

    def test_flags_before_command(self, tmp_path):
        flags = ["--truth", "sine(1)", "--delta", "1e-3", "--grid", "41", "--seed", "3"]
        runs = {"after": ["differentiate", *flags],
                "before": [*flags, "differentiate"],
                "around": [*flags[:4], "differentiate", *flags[4:]]}
        for name, argv in runs.items():
            assert run_cli("--out", str(tmp_path / name), *argv) == 0
        trees = [read_bytes_tree(tmp_path / name) for name in runs]
        assert trees[0] == trees[1] == trees[2]


@pytest.mark.parametrize("args", [
    ("differentiate", "--truth", "quadratic", "--delta", "1e-4", "--a", "2", "--m", "1"),
    ("sweep", "--deltas", "1e-2,1e-3", "--a", "2", "--m", "1",
     "--noise", "alternating-worst-case"),
    ("adversary", "--class", "lip", "--m", "2", "--deltas", "1e-2,1e-3"),
    ("variational", "--truth", "constant", "--deltas", "1e-1,1e-2",
     "--phi", "sup-norm", "--c", "2"),
    ("modulus", "--phi", "sup-norm", "--c", "1", "--levels", "21",
     "--lattice-nodes", "5", "--constants-only", "true", "--deltas", "0.15,0.35"),
])
def test_rerun_is_byte_identical(tmp_path, args):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli(*args, "--seed", "9", "--out", str(out1)) == 0
    assert run_cli(*args, "--seed", "9", "--out", str(out2)) == 0
    assert read_bytes_tree(out1) == read_bytes_tree(out2)


def test_emitted_csvs_reparse(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", "--deltas", "1e-2,1e-3", "--a", "2", "--m", "1",
                   "--noise", "alternating-worst-case", "--seed", "1", "--out", str(out)) == 0
    header, rows, meta = read_csv_table(out / "sweep.csv")
    assert len(rows) == 2 and len(header) == 4 and "eta_loglog_slope" in meta
