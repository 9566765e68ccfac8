"""CLI subcommands, artifacts, exit codes, reproducibility."""

import csv
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from growthopt import (FixedTargetStrategy, StateGrid, bundled_model_path,
                       load_model, model_fingerprint, run, solve_discounted)
from growthopt.cli import main
from growthopt.modelio import (dump_solution, load_policy, parse_model_dict,
                               trajectory_csv)


def write_model(tmp_path, mutate=None):
    with open(bundled_model_path()) as fh:
        doc = json.load(fh)
    if mutate:
        mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def base_args(tmp_path, out="out"):
    return ["--model", write_model(tmp_path), "--output-dir",
            str(tmp_path / out)]


class TestValidateCommand:
    def test_bundled_model_passes(self, tmp_path, capsys):
        code = main(base_args(tmp_path) + ["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kappa=" in out and "floor_rate=" in out
        doc = json.loads((tmp_path / "out" / "validate.json").read_text())
        assert doc["ok"] is True

    def test_identity_transition_fails(self, tmp_path):
        def mutate(doc):
            doc["factors"]["transition"] = [[1.0, 0.0], [0.0, 1.0]]
        path = write_model(tmp_path, mutate)
        code = main(["--model", path, "--output-dir", str(tmp_path / "o"),
                     "validate"])
        assert code == 1

    def test_excessive_costs_fail_growth_gate(self, tmp_path):
        def mutate(doc):
            doc["costs"]["buy"] = [0.4, 0.4]
            doc["costs"]["sell"] = [0.4, 0.4]
        path = write_model(tmp_path, mutate)
        code = main(["--model", path, "--output-dir", str(tmp_path / "o"),
                     "validate"])
        assert code == 1
        doc = json.loads((tmp_path / "o" / "validate.json").read_text())
        assert doc["checks"]["growth_exceeds_drag"]["passed"] is False

    @pytest.mark.parametrize("section, key, message", [
        (None, "shocks", "model: missing key 'shocks'"),
        (None, "returns", "model: missing key 'returns'"),
        ("shocks", "probs", "model section 'shocks': missing key 'probs'"),
        ("factors", "transition",
         "model section 'factors': missing key 'transition'"),
        ("costs", "sell", "model section 'costs': missing key 'sell'")])
    def test_missing_key_is_named(self, tmp_path, capsys, section, key,
                                  message):
        def mutate(doc):
            del (doc if section is None else doc[section])[key]
        path = write_model(tmp_path, mutate)
        code = main(["--model", path, "--output-dir", str(tmp_path / "o"),
                     "validate"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {message}" in err and "Traceback" not in err

    def test_bad_row_sums_rejected(self, tmp_path):
        def mutate(doc):
            doc["factors"]["transition"] = [[0.8, 0.1], [0.2, 0.8]]
        path = write_model(tmp_path, mutate)
        assert main(["--model", path, "--output-dir", str(tmp_path / "o"),
                     "validate"]) == 1


class TestSolveCommand:
    def test_emits_reloadable_policy(self, tmp_path):
        args = base_args(tmp_path)
        code = main(args + ["--mesh-order", "4", "solve", "--beta", "0.95"])
        assert code == 0
        pol = load_policy(str(tmp_path / "out" / "value_beta"))
        assert pol.impulse.shape == (5, 16, 2)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "value_beta.csv" in manifest["outputs"]

    def test_proportional_model_drops_wealth_axis(self, tmp_path):
        def mutate(doc):
            doc["costs"]["fixed"] = 0.0
        path = write_model(tmp_path, mutate)
        code = main(["--model", path, "--output-dir", str(tmp_path / "p"),
                     "--mesh-order", "4", "solve", "--beta", "0.95"])
        assert code == 0
        pol = load_policy(str(tmp_path / "p" / "value_beta"))
        assert pol.wealth_free
        assert pol.impulse.shape == (5, 2)


@pytest.fixture(scope="module")
def optimal_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("opt")
    args = base_args(tmp)
    assert main(args + ["--mesh-order", "4", "optimal"]) == 0
    return tmp


class TestOptimalAndSimulate:
    def test_report_fields(self, optimal_dir):
        doc = json.loads((optimal_dir / "out" / "optimal.json").read_text())
        assert doc["policy_ref"] == "policy"
        assert len(doc["lambda_estimates"]) == len(doc["betas"])
        assert doc["lambda"] == doc["lambda_estimates"][-1]
        assert "residual_summary" in doc

    def test_simulate_emitted_policy(self, optimal_dir, capsys):
        model_path = str(optimal_dir / "model.json")
        code = main(["--model", model_path, "--output-dir",
                     str(optimal_dir / "sim"), "--T", "400", "--n-paths", "40",
                     "simulate", "--policy", str(optimal_dir / "out" / "policy"),
                     "--mimic", "off"])
        assert code == 0
        doc = json.loads((optimal_dir / "sim" / "simulate.json").read_text())
        opt = json.loads((optimal_dir / "out" / "optimal.json").read_text())
        # growth net of the initial-wealth offset lands near the solver rate
        offset = np.log(100.0) / 400
        assert abs(doc["growth_mean"] - offset - opt["lambda"]) <= 5e-3

    def test_simulate_mimicking_wrapper(self, optimal_dir):
        model_path = str(optimal_dir / "model.json")
        code = main(["--model", model_path, "--output-dir",
                     str(optimal_dir / "sim2"), "--T", "300", "--n-paths", "20",
                     "simulate", "--policy",
                     str(optimal_dir / "out" / "policy_prop"), "--mimic", "auto"])
        assert code == 0
        doc = json.loads((optimal_dir / "sim2" / "simulate.json").read_text())
        assert doc["mimicking"] is True


class TestSimulatePolicyCheck:
    def test_foreign_model_hash_exits_1(self, optimal_dir, tmp_path, capsys):
        def other_costs(doc):
            doc["costs"]["buy"] = [0.004, 0.004]
        model_path = write_model(tmp_path, other_costs)
        code = main(["--model", model_path, "--output-dir", str(tmp_path / "sim"),
                     "--T", "50", "--n-paths", "2", "simulate", "--policy",
                     str(optimal_dir / "out" / "policy"), "--mimic", "off"])
        err = capsys.readouterr().err
        assert code == 1
        header = json.loads((optimal_dir / "out" / "policy.json").read_text())
        assert header["model_hash"] in err
        assert model_fingerprint(*load_model(model_path)) in err
        assert not (tmp_path / "sim" / "simulate.json").exists()

    def test_one_factor_policy_on_two_factor_model_exits_1(self, tmp_path,
                                                           capsys):
        def one_factor(doc):
            doc["factors"]["transition"] = [[1.0]]
            doc["returns"] = doc["returns"][:1]
        (tmp_path / "one").mkdir()
        one = write_model(tmp_path / "one", one_factor)
        assert main(["--model", one, "--output-dir", str(tmp_path / "one"),
                     "--mesh-order", "4", "solve", "--beta", "0.9"]) == 0
        code = main(base_args(tmp_path, "sim") + [
            "--T", "50", "--n-paths", "2", "simulate", "--policy",
            str(tmp_path / "one" / "value_beta"), "--mimic", "off"])
        err = capsys.readouterr().err
        assert code == 1
        assert "1 factor states" in err and "2 factor states" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def dumps(tmp_path_factory, two_asset):
    """"fixed" and "proportional" -> (path base of a dump, solved policy)."""
    model, spec = two_asset
    tmp = tmp_path_factory.mktemp("dumps")
    grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
    out = {}
    for name, s in (("fixed", spec), ("proportional", spec.without_fixed())):
        vf, pol, _ = solve_discounted(model, s, grid, 0.9, tol=1e-5)
        dump_solution(vf, pol, str(tmp / name), "hash", seed=1)
        out[name] = (str(tmp / name), pol)
    return out


def corrupt(dumps, tmp_path, name, edit):
    """Copy a dump with its CSV lines passed through ``edit``."""
    base, _ = dumps[name]
    lines = open(base + ".csv").read().splitlines(keepends=True)
    out = str(tmp_path / name)
    with open(out + ".json", "w") as fh:
        fh.write(open(base + ".json").read())
    with open(out + ".csv", "w") as fh:
        fh.writelines(edit(lines))
    return out


def set_cell(lines, line_no, col, value):
    """Set one cell of the CSV line numbered ``line_no`` (header = 1)."""
    cells = lines[line_no - 1].rstrip("\n").split(",")
    cells[col] = value
    return lines[:line_no - 1] + [",".join(cells) + "\n"] + lines[line_no:]


class TestPolicyDump:
    @pytest.mark.parametrize("name", ["fixed", "proportional"])
    def test_round_trip_is_exact(self, dumps, name):
        base, pol = dumps[name]
        back = load_policy(base)
        assert back.grid.shape == pol.grid.shape
        assert back.wealth_free == (name == "proportional")
        np.testing.assert_array_equal(back.impulse, pol.impulse)
        np.testing.assert_array_equal(back.target, pol.target)
        assert pol.impulse.any() and (pol.target != 0).any()

    @pytest.mark.parametrize("name, edit, message", [
        ("fixed", lambda ls: set_cell(ls, 2, 0, "99"),
         "line 2: row does not name a state"),
        ("proportional", lambda ls: set_cell(ls, 3, 2, "-1"),
         "line 3: row does not name a state"),
        ("fixed", lambda ls: set_cell(ls, 4, 1, ""),
         "line 4: row does not name a state"),
        ("proportional", lambda ls: set_cell(ls, 4, 1, "0"),
         "line 4: row does not name a state"),
        ("fixed", lambda ls: set_cell(ls, 5, 2, "x"),
         "line 5: a state index or target coordinate is not a number"),
        ("fixed", lambda ls: ls[:3] + ls[2:],
         r"line 4: state \(0, 0, 1\) appears twice"),
        ("proportional", lambda ls: ls[:5] + ls[6:],
         r"no row for state \(2, 0\) \(1 states missing\)")])
    def test_malformed_rows_are_refused(self, dumps, tmp_path, name, edit,
                                        message):
        base = corrupt(dumps, tmp_path, name, edit)
        with pytest.raises(ValueError, match=re.escape(base + ".csv")
                           + ".*" + message):
            load_policy(base)

    def test_simulate_exits_1_on_a_malformed_policy(self, tmp_path, capsys):
        args = base_args(tmp_path, "p")
        assert main(args + ["--mesh-order", "4", "solve", "--beta",
                            "0.9"]) == 0
        path = tmp_path / "p" / "value_beta.csv"
        path.write_text("".join(set_cell(path.read_text().splitlines(
            keepends=True), 2, 0, "99")))
        code = main(base_args(tmp_path, "sim") + [
            "--T", "50", "--n-paths", "2", "simulate", "--policy",
            str(tmp_path / "p" / "value_beta"), "--mimic", "off"])
        err = capsys.readouterr().err
        assert code == 1
        assert "value_beta.csv line 2" in err and "Traceback" not in err
        assert not (tmp_path / "sim").exists()


    @pytest.mark.parametrize("cell", ["true", "", "2"])
    def test_impulse_cells_other_than_0_or_1_are_refused(self, dumps,
                                                         tmp_path, cell):
        base, _ = dumps["fixed"]
        col = open(base + ".csv").readline().strip().split(",").index("impulse")
        bad = corrupt(dumps, tmp_path, "fixed",
                      lambda ls: set_cell(ls, 3, col, cell))
        with pytest.raises(ValueError, match=re.escape(bad + ".csv")
                           + f" line 3: impulse cell '{cell}' is neither"):
            load_policy(bad)

    @pytest.mark.parametrize("drop, message", [
        (("grid",), r"policy\.json: missing key 'grid'"),
        (("beta",), r"policy\.json: missing key 'beta'"),
        (("grid", "n_z"), r"policy\.json section 'grid': missing key 'n_z'"),
        (("grid", "wealth", "n_x"),
         r"policy\.json section 'grid\.wealth': missing key 'n_x'")])
    def test_missing_header_keys_are_named(self, dumps, tmp_path, drop,
                                           message):
        base, _ = dumps["fixed"]
        header = json.loads(open(base + ".json").read())
        section = header
        for key in drop[:-1]:
            section = section[key]
        del section[drop[-1]]
        out = tmp_path / "policy"
        (tmp_path / "policy.json").write_text(json.dumps(header))
        (tmp_path / "policy.csv").write_text(open(base + ".csv").read())
        with pytest.raises(ValueError, match=message):
            load_policy(str(out))

    @pytest.mark.parametrize("mode", ["nearest-linear", "nearest-nearest"])
    def test_dumps_with_an_interpolation_key_still_load(self, dumps,
                                                        tmp_path, mode):
        # dumps no longer write the key, older ones carry it; a loaded
        # policy looks up nearest nodes, which it never changed
        base, pol = dumps["fixed"]
        header = json.loads(open(base + ".json").read())
        assert "interpolation" not in header["grid"]
        header["grid"]["interpolation"] = mode
        (tmp_path / "policy.json").write_text(json.dumps(header))
        (tmp_path / "policy.csv").write_text(open(base + ".csv").read())
        back = load_policy(str(tmp_path / "policy"))
        np.testing.assert_array_equal(back.impulse, pol.impulse)
        np.testing.assert_array_equal(back.target, pol.target)

    @pytest.mark.parametrize("edit, message", [
        ("true cells", "impulse cell 'true' is neither 0 nor 1"),
        ("no grid", "value_beta.json: missing key 'grid'")])
    def test_simulate_exits_1_on_a_bad_dump(self, tmp_path, capsys, edit,
                                            message):
        args = base_args(tmp_path, "p")
        assert main(args + ["--mesh-order", "4", "solve", "--beta",
                            "0.9"]) == 0
        base = tmp_path / "p" / "value_beta"
        if edit == "true cells":
            csv_path = base.with_suffix(".csv")
            text = csv_path.read_text()
            col = text.splitlines()[0].split(",").index("impulse")
            lines = text.splitlines(keepends=True)
            for no in range(2, len(lines) + 1):
                if lines[no - 1].rstrip("\n").split(",")[col] == "1":
                    lines = set_cell(lines, no, col, "true")
            csv_path.write_text("".join(lines))
        else:
            header = json.loads(base.with_suffix(".json").read_text())
            del header["grid"]
            base.with_suffix(".json").write_text(json.dumps(header))
        code = main(base_args(tmp_path, "sim") + [
            "--T", "50", "--n-paths", "2", "simulate", "--policy", str(base),
            "--mimic", "off"])
        err = capsys.readouterr().err
        assert code == 1
        assert "value_beta." in err and message in err
        assert "Traceback" not in err and not (tmp_path / "sim").exists()

def oracle_trajectory_csv(traj):
    """``trajectory_csv`` as it was before it read each column once: one
    numpy scalar per cell, each through ``repr(float(v))``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = traj.pi.shape[1]
    writer.writerow(["t", "z", "xi"] + [f"pi_prev_{i}" for i in range(d)]
                    + ["transacted"] + [f"pi_{i}" for i in range(d)]
                    + ["e_applied", "x_prev", "x"])
    cell = lambda v: repr(float(v))  # noqa: E731
    for k in range(traj.t.shape[0]):
        writer.writerow(
            [int(traj.t[k]), int(traj.z[k]), int(traj.xi[k])]
            + [cell(v) for v in traj.pi_prev[k]]
            + [int(traj.transacted[k])]
            + [cell(v) for v in traj.pi[k]]
            + [cell(traj.e_applied[k]), cell(traj.x_prev[k]), cell(traj.x[k])])
    return buf.getvalue()


class TestTrajectoryArtifact:
    def test_csv_round_trip(self, optimal_dir):
        from growthopt.modelio import read_trajectory_csv
        model_path = str(optimal_dir / "model.json")
        assert main(["--model", model_path, "--output-dir",
                     str(optimal_dir / "traj"), "--T", "100", "--n-paths", "2",
                     "simulate", "--policy", str(optimal_dir / "out" / "policy"),
                     "--mimic", "off"]) == 0
        path = str(optimal_dir / "traj" / "trajectory.csv")
        head = open(path).readline().strip().split(",")
        assert head == ["t", "z", "xi", "pi_prev_0", "pi_prev_1", "transacted",
                        "pi_0", "pi_1", "e_applied", "x_prev", "x"]
        data = read_trajectory_csv(path)
        assert data["t"].shape[0] == 101
        assert np.isfinite(data["x_prev"]).all()
        np.testing.assert_allclose(data["pi_prev"].sum(axis=1), 1.0,
                                   atol=1e-12)


    @pytest.mark.parametrize("name", ["fixed_target",
                                      "fixed_target_annihilated"])
    def test_writer_matches_the_per_cell_writer(self, two_asset, name):
        model, spec = two_asset
        x0 = 40.0 if name == "fixed_target" else 1.0
        traj = run(model, spec, FixedTargetStrategy([0.3, 0.7]), [0.6, 0.4],
                   x0, 0, 300, seed=61)
        assert traj.transacted.any()
        assert traj.annihilated == (name == "fixed_target_annihilated")
        assert trajectory_csv(traj) == oracle_trajectory_csv(traj)

class TestSimulateEngine:
    @pytest.mark.parametrize("mode, name", [("off", "policy"),
                                            ("auto", "policy_prop")])
    def test_one_walk_and_trajectory_is_path_0(self, optimal_dir, monkeypatch,
                                               mode, name):
        from growthopt import average, modelio, simulate
        from growthopt.costs import cost_constants
        from growthopt.market import growth_floor
        calls = []
        sample = simulate.sample_factor_paths

        def counted(model, z0, T, rng):
            calls.append(len(z0))
            return sample(model, z0, T, rng)

        monkeypatch.setattr(simulate, "sample_factor_paths", counted)
        model_path = str(optimal_dir / "model.json")
        policy_path = str(optimal_dir / "out" / name)
        out = optimal_dir / f"engine_{mode}"
        assert main(["--model", model_path, "--output-dir", str(out), "--T",
                     "200", "--n-paths", "6", "--seed", "31", "simulate",
                     "--policy", policy_path, "--mimic", mode]) == 0
        assert calls == [6]
        model, spec = load_model(model_path)
        policy = load_policy(policy_path)
        if mode == "auto":
            constants = cost_constants(spec, growth_floor(model)[0])
            strategy = simulate.MimickingStrategy(
                average.build_mimicking(policy, constants))
        else:
            strategy = simulate.GridPolicyStrategy(policy)
        traj = simulate.run(model, spec, strategy, [0.5, 0.5], 100.0, 0, 200,
                            31, stream=0)
        assert (out / "trajectory.csv").read_bytes() == \
            modelio.trajectory_csv(traj).encode()

    @pytest.mark.parametrize("start, message", [
        ({"z0": 5}, "initial factor state 5 outside [0, 2)"),
        ({"z0": -1}, "initial factor state -1 outside [0, 2)"),
        ({"x0": 0.0}, "initial wealth must be positive"),
        ({"x0": -3.0}, "initial wealth must be positive"),
        ({"T": 1}, "T >= 2")])
    def test_bad_start_exits_1(self, optimal_dir, tmp_path, capsys, start,
                               message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulation": {"T": 20, "n_paths": 2,
                                                  **start}}))
        code = main(["--config", str(cfg), "--model",
                     str(optimal_dir / "model.json"), "--output-dir",
                     str(tmp_path / "sim"), "simulate", "--policy",
                     str(optimal_dir / "out" / "policy"), "--mimic", "off"])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "sim" / "trajectory.csv").exists()
        assert not (tmp_path / "sim" / "simulate.json").exists()


class TestLdcheckCommand:
    def test_emits_csv_and_slope(self, tmp_path):
        args = base_args(tmp_path)
        code = main(args + ["--n-paths", "5000", "ldcheck"])
        assert code == 0
        body = (tmp_path / "out" / "ld_tail.csv").read_text().splitlines()
        assert body[0] == "T,p_hat,eps,tail_prob,n_paths"
        assert len(body) == 7


    @pytest.mark.parametrize("t_max", ["10", "0", "31"])
    def test_short_t_max_exits_1(self, tmp_path, capsys, t_max):
        args = base_args(tmp_path)
        assert main(args + ["--n-paths", "100", "ldcheck", "--t-max",
                            t_max]) == 1
        assert "--t-max must be at least 32" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ld_tail.csv").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_bad_eps_exits_1(self, tmp_path, capsys, eps):
        args = base_args(tmp_path)
        assert main(args + ["--n-paths", "100", "ldcheck", "--eps", eps]) == 1
        err = capsys.readouterr().err
        assert "eps must be positive and finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "ld_tail.csv").exists()

    def test_horizons_stay_within_t_max(self, tmp_path):
        args = base_args(tmp_path)
        assert main(args + ["--n-paths", "100", "ldcheck", "--t-max",
                            "39"]) == 0
        body = (tmp_path / "out" / "ld_tail.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in body[1:]] == [
            4, 8, 12, 16, 24, 32]


class TestOptimalSettings:
    def run_optimal(self, tmp_path, out, tolerances):
        cfg = tmp_path / f"{out}.json"
        cfg.write_text(json.dumps({"grid": {"simplex_order": 4},
                                   "betas": [0.9, 0.99],
                                   "tolerances": tolerances}))
        assert main(["--config", str(cfg)] + base_args(tmp_path, out)
                    + ["optimal"]) == 0
        return tmp_path / out

    def test_tie_eps_reaches_the_policy(self, tmp_path):
        default = self.run_optimal(tmp_path, "default", {})
        wide = self.run_optimal(tmp_path, "wide", {"tie_eps": 0.5})
        for name in ("policy.csv", "policy_prop.csv"):
            assert (default / name).read_bytes() != (wide / name).read_bytes()
        doc = json.loads((wide / "manifest.json").read_text())
        assert doc["config"]["tie_eps"] == 0.5
        assert "cross_tol" not in doc["config"]

    def test_tables_built_once_per_variant(self, tmp_path, monkeypatch):
        from growthopt import average
        calls = []
        build = average.build_tables

        def counted(model, spec, grid):
            calls.append(spec.fixed > 0)
            return build(model, spec, grid)

        monkeypatch.setattr(average, "build_tables", counted)
        self.run_optimal(tmp_path, "out", {})
        assert sorted(calls) == [False, True]


class TestConfigKeys:
    @pytest.mark.parametrize("doc, message", [
        ({"typo_key": 1}, "unknown config key 'typo_key' in top level"),
        ({"grid": {"simplex_order": 4, "mesh": 4}},
         "unknown config key 'mesh' in section grid"),
        ({"grid": {"wealth": {"n_x": 4, "xmax": 10.0}}},
         "unknown config key 'xmax' in section grid.wealth"),
        ({"tolerances": {"tol": 1e-6, "cross_tol": 1e-3}},
         "unknown config key 'cross_tol' in section tolerances"),
        ({"simulation": {"T": 10, "paths": 10}},
         "unknown config key 'paths' in section simulation"),
        ({"grid": {"wealth": 8}},
         "config section grid.wealth must be a JSON object"),
        ({"grid": {"interpolation": "nearest-linear"}},
         "unknown config key 'interpolation' in section grid")])
    def test_unknown_key_exits_1(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["--config", str(cfg)] + base_args(tmp_path)
                    + ["validate"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("doc, message", [
        ({"grid": {"wealth": {"n_x": 0}}}, "n_x must be >= 1"),
        ({"betas": 0.9}, "config key 'betas' must be a list of numbers"),
        ({"betas": [0.9, True]},
         "config key 'betas' must be a list of numbers"),
        ({"tolerances": {"tol": "1e-6"}}, "config key 'tol' must be a number"),
        ({"grid": {"simplex_order": 4.0}},
         "config key 'simplex_order' must be an integer"),
        ({"simulation": {"seed": True}},
         "config key 'seed' must be an integer"),
        ({"output_dir": 3}, "config key 'output_dir' must be a string")])
    def test_wrong_value_type_exits_1(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["--config", str(cfg)] + base_args(tmp_path)
                    + ["optimal"])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestReproducibility:
    def test_csv_bodies_byte_identical(self, tmp_path):
        model = write_model(tmp_path)
        for out in ("a", "b"):
            assert main(["--model", model, "--output-dir",
                         str(tmp_path / out), "--mesh-order", "4", "--seed",
                         "777", "optimal"]) == 0
            assert main(["--model", model, "--output-dir",
                         str(tmp_path / out), "--T", "200", "--n-paths", "10",
                         "--seed", "777", "simulate", "--policy",
                         str(tmp_path / out / "policy"), "--mimic", "off"]) == 0
        for name in ("policy.csv", "policy_prop.csv", "trajectory.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_manifests_identical_modulo_timing(self, tmp_path):
        model = write_model(tmp_path)
        docs = []
        for out in ("m1", "m2"):
            assert main(["--model", model, "--output-dir",
                         str(tmp_path / out), "--mesh-order", "4", "--seed",
                         "9", "optimal"]) == 0
            doc = json.loads((tmp_path / out / "manifest.json").read_text())
            doc.pop("timing")
            doc["config"].pop("output_dir")
            docs.append(doc)
        assert docs[0] == docs[1]


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_empty_config_exits_2(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "validate"])
        assert err.value.code == 2

    def test_missing_model_is_domain_error(self, tmp_path):
        assert main(["--model", str(tmp_path / "nope.json"), "--output-dir",
                     str(tmp_path / "o"), "validate"]) == 1

    def test_config_file_with_overrides(self, tmp_path):
        model = write_model(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model_path": model,
            "grid": {"simplex_order": 4,
                     "wealth": {"x_min": 1e-3, "x_max": 1e4, "n_x": 8}},
            "betas": [0.9, 0.99],
            "tolerances": {"tol": 1e-5, "tie_eps": 1e-10},
            "simulation": {"T": 100, "n_paths": 10, "seed": 5},
            "output_dir": str(tmp_path / "cfgout"),
        }))
        assert main(["--config", str(cfg), "optimal"]) == 0
        doc = json.loads((tmp_path / "cfgout" / "optimal.json").read_text())
        assert doc["betas"] == [0.9, 0.99]

    def test_console_entry_point(self):
        res = subprocess.run([sys.executable, "-m", "growthopt.cli", "--help"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "validate" in res.stdout


class TestBadInputs:
    @pytest.mark.parametrize("case, message", [
        ("model is a directory", "Is a directory"),
        ("model is a list", "a model must be a JSON object"),
        ("empty schedule", "betas must hold at least one discount factor")])
    def test_exits_1_with_a_message(self, tmp_path, capsys, case, message):
        model = write_model(tmp_path)
        args = []
        if case == "model is a directory":
            model = str(tmp_path)
        elif case == "model is a list":
            (tmp_path / "list.json").write_text("[1, 2]")
            model = str(tmp_path / "list.json")
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"betas": []}))
            args = ["--config", str(tmp_path / "cfg.json")]
        code = main(args + ["--model", model, "--output-dir",
                            str(tmp_path / "out"), "optimal"])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["validate", "ldcheck"])
    @pytest.mark.parametrize("section, key, value, message", [
        ("shocks", "probs", [float("nan"), 0.5],
         "model section 'shocks': probs row 0"),
        ("shocks", "probs", [1.25, -0.25],
         "model section 'shocks': probs row 0"),
        ("factors", "transition", [[0.9, 0.1], [1.2, -0.2]],
         "model section 'factors': transition row 1"),
        ("factors", "transition", [[0.9, 0.1], [float("inf"), 0.8]],
         "model section 'factors': transition row 1")])
    def test_bad_probabilities_exit_1(self, tmp_path, capsys, command,
                                      section, key, value, message):
        model = write_model(tmp_path,
                            lambda doc: doc[section].update({key: value}))
        out = tmp_path / "out"
        assert main(["--model", model, "--output-dir", str(out),
                     "--n-paths", "100", command]) == 1
        err = capsys.readouterr().err
        assert message in err and "finite and non-negative" in err
        assert "Traceback" not in err
        assert not (out / "ld_tail.csv").exists()
        assert not out.exists()


class TestModelParsing:
    def test_decimal_strings_accepted(self):
        model, spec = load_model(bundled_model_path())
        assert model.shock_probs[0] == 0.5
        assert spec.fixed == 0.1

    def test_mild_rounding_renormalized(self):
        doc = {
            "assets": 1,
            "factors": {"transition": [[1.0 + 5e-10]]},
            "shocks": {"probs": [1.0]},
            "returns": [[[1.05]]],
        }
        model, _ = parse_model_dict(doc)
        assert model.transition[0, 0] == 1.0

    def test_shape_mismatch_rejected(self):
        doc = {
            "assets": 2,
            "factors": {"transition": [[1.0]]},
            "shocks": {"probs": [1.0]},
            "returns": [[[1.05]]],
        }
        with pytest.raises(ValueError):
            parse_model_dict(doc)
