"""CLI subcommands, artifacts, exit codes, reproducibility."""

import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from growthopt import (FixedTargetStrategy, StateGrid, build_tables,
                       bundled_model_path, load_model, model_fingerprint, run,
                       solve_discounted, vanishing_discount)
from growthopt.cli import main
from growthopt.modelio import (dump_solution, load_policy, parse_model_dict,
                               trajectory_csv)

from conftest import GRID_SETTINGS, REFUSED_GRID_SETTINGS


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
        assert list(manifest["timing"]["stages_s"]) == ["solve"]

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

    def test_report_is_written_whole(self, optimal_dir):
        # optimal.json is the report's own dict plus policy_ref, nothing
        # computed on the side
        model, spec = load_model(str(optimal_dir / "model.json"))
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=16)
        report = vanishing_discount(model, spec, grid,
                                    [0.9, 0.99, 0.995, 0.999], tol=1e-6)
        want = dict(report.to_json_dict(), policy_ref="policy")
        got = json.loads((optimal_dir / "out" / "optimal.json").read_text())
        assert got == json.loads(json.dumps(want))

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
    grid = StateGrid.build(**GRID_SETTINGS)
    out = {}
    for name, s in (("fixed", spec), ("proportional", spec.without_fixed())):
        vf, pol, _ = solve_discounted(build_tables(model, s, grid),
                                      0.9, tol=1e-5)
        dump_solution(vf, pol, str(tmp / name), "hash", seed=1)
        out[name] = (str(tmp / name), pol)
    return out


def set_grid_key(key, val):
    """A header edit that sets grid key ``key``, in its wealth section for
    a wealth key, to ``val``."""
    def edit(header, lines):
        section = header["grid"]
        if key in ("x_min", "x_max", "n_x"):
            section = section["wealth"]
        section[key] = val
        return lines
    return edit


def corrupt(dumps, tmp_path, name, edit):
    """Copy a dump with its CSV lines passed through ``edit``."""
    base, _ = dumps[name]
    lines = Path(base + ".csv").read_text().splitlines(keepends=True)
    out = str(tmp_path / name)
    Path(out + ".json").write_text(Path(base + ".json").read_text())
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

    @staticmethod
    def edit_targets(tmp_path, edit):
        """Solve a mesh-4 dump and pass the target cells of its CSV line 2
        through ``edit``; return the dump's path base."""
        assert main(base_args(tmp_path, "p") + ["--mesh-order", "4", "solve",
                                                "--beta", "0.9"]) == 0
        path = tmp_path / "p" / "value_beta.csv"
        lines = path.read_text().splitlines(keepends=True)
        col = lines[0].rstrip("\n").split(",").index("target_0")
        cells = lines[1].rstrip("\n").split(",")
        for k, cell in enumerate(edit(cells[col:col + 2])):
            lines = set_cell(lines, 2, col + k, cell)
        path.write_text("".join(lines))
        return str(tmp_path / "p" / "value_beta")

    # target_0 alone, or both cells: (0.3, 0.7) sums to 1 and is nearest
    # to the node (0.25, 0.75)
    @pytest.mark.parametrize("cells", [["nan"], ["inf"], ["5.0"],
                                       ["0.3", "0.7"]],
                             ids=["nan", "inf", "5.0", "0.3,0.7"])
    def test_simulate_exits_1_on_a_target_off_the_grid(self, tmp_path,
                                                       capsys, cells):
        base = self.edit_targets(tmp_path, lambda old: cells)
        with pytest.raises(ValueError, match=re.escape(base) + r"\.csv line "
                           r"2: target .* is not a node of the mesh-4 grid"):
            load_policy(base)
        code = main(base_args(tmp_path, "sim") + [
            "--T", "50", "--n-paths", "2", "simulate", "--policy", base,
            "--mimic", "off"])
        err = capsys.readouterr().err
        assert code == 1
        assert "value_beta.csv line 2" in err and "Traceback" not in err
        assert not (tmp_path / "sim").exists()

    def test_a_target_within_the_tolerance_loads_as_its_node(self, tmp_path):
        base = self.edit_targets(tmp_path, lambda old: [
            repr(float(old[0]) + 1e-12), repr(float(old[1]) - 1e-12)])
        pol = load_policy(base)
        assert main(base_args(tmp_path, "q") + ["--mesh-order", "4", "solve",
                                                "--beta", "0.9"]) == 0
        ref = load_policy(str(tmp_path / "q" / "value_beta"))
        np.testing.assert_array_equal(pol.target, ref.target)


    @pytest.mark.parametrize("cell", ["true", "", "2"])
    def test_impulse_cells_other_than_0_or_1_are_refused(self, dumps,
                                                         tmp_path, cell):
        base, _ = dumps["fixed"]
        head = Path(base + ".csv").read_text().splitlines()[0].split(",")
        col = head.index("impulse")
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
        header = json.loads(Path(base + ".json").read_text())
        section = header
        for key in drop[:-1]:
            section = section[key]
        del section[drop[-1]]
        out = tmp_path / "policy"
        (tmp_path / "policy.json").write_text(json.dumps(header))
        (tmp_path / "policy.csv").write_text(Path(base + ".csv").read_text())
        with pytest.raises(ValueError, match=message):
            load_policy(str(out))

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda h, ls: [], r"policy\.csv: empty, no header row",
                     id="empty csv"),
        pytest.param(lambda h, ls: [ls[0].replace("target_0", "t0")] + ls[1:],
                     r"policy\.csv: header has no 'target_0' column",
                     id="no target_0"),
        pytest.param(lambda h, ls: [ls[0].replace("impulse", "i")] + ls[1:],
                     r"policy\.csv: header has no 'impulse' column",
                     id="no impulse"),
        pytest.param(lambda h, ls: h["grid"].update(n_assets="2") or ls,
                     r"policy\.json section 'grid': n_assets must be an "
                     r"integer >= 1, got '2'", id="n_assets string"),
        pytest.param(lambda h, ls: h["grid"].update(mesh_order=2.5) or ls,
                     r"policy\.json section 'grid': mesh_order must be an "
                     r"integer >= 1, got 2\.5", id="mesh_order float"),
        pytest.param(lambda h, ls: h["grid"]["wealth"].update(x_max="1e3")
                     or ls, r"policy\.json section 'grid': x_max must be a "
                     r"finite number, got '1e3'", id="x_max string"),
        pytest.param(lambda h, ls: h.update(beta="nonsense") or ls,
                     r"policy\.json: key 'beta' must be a number in \(0, 1\) "
                     r"or \"average\", got 'nonsense'", id="beta string"),
        pytest.param(lambda h, ls: h.update(beta=1.0) or ls,
                     r"policy\.json: key 'beta' must be a number in \(0, 1\) "
                     r"or \"average\", got 1\.0", id="beta 1.0"),
        pytest.param(lambda h, ls: h.update(beta=True) or ls,
                     r"policy\.json: key 'beta' must be a number in \(0, 1\) "
                     r"or \"average\", got True", id="beta true"),
        *[pytest.param(set_grid_key(*p.values[:2]), r"policy\.json section "
                       r"'grid': " + re.escape(p.values[2]), id=f"grid {p.id}")
          for p in REFUSED_GRID_SETTINGS]])
    def test_simulate_exits_1_on_a_bad_header_or_column(self, dumps, tmp_path,
                                                        capsys, edit, message):
        base, _ = dumps["fixed"]
        header = json.loads(Path(base + ".json").read_text())
        lines = edit(header,
                     Path(base + ".csv").read_text().splitlines(keepends=True))
        (tmp_path / "policy.json").write_text(json.dumps(header))
        (tmp_path / "policy.csv").write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(str(tmp_path)) + ".*"
                           + message):
            load_policy(str(tmp_path / "policy"))
        code = main(base_args(tmp_path, "sim") + [
            "--T", "50", "--n-paths", "2", "simulate", "--policy",
            str(tmp_path / "policy"), "--mimic", "off"])
        err = capsys.readouterr().err
        assert code == 1
        assert re.search(message, err) and "Traceback" not in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("mode", ["nearest-linear", "nearest-nearest"])
    def test_dumps_with_an_interpolation_key_still_load(self, dumps,
                                                        tmp_path, mode):
        # dumps no longer write the key, older ones carry it; a loaded
        # policy looks up nearest nodes, which it never changed
        base, pol = dumps["fixed"]
        header = json.loads(Path(base + ".json").read_text())
        assert "interpolation" not in header["grid"]
        header["grid"]["interpolation"] = mode
        (tmp_path / "policy.json").write_text(json.dumps(header))
        (tmp_path / "policy.csv").write_text(Path(base + ".csv").read_text())
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


def read_trajectory_csv(path: str) -> dict:
    """Load a trajectory dump as a dict of column arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        cols = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.array(rows)
    out = {}
    d = sum(1 for c in cols if c.startswith("pi_prev_"))
    for name in ("t", "z", "xi"):
        out[name] = data[:, cols.index(name)].astype(np.int64)
    out["pi_prev"] = data[:, cols.index("pi_prev_0"):cols.index("pi_prev_0") + d]
    out["pi"] = data[:, cols.index("pi_0"):cols.index("pi_0") + d]
    out["transacted"] = data[:, cols.index("transacted")].astype(bool)
    for name in ("e_applied", "x_prev", "x"):
        out[name] = data[:, cols.index(name)]
    return out


class TestTrajectoryArtifact:
    def test_csv_round_trip(self, optimal_dir):
        model_path = str(optimal_dir / "model.json")
        assert main(["--model", model_path, "--output-dir",
                     str(optimal_dir / "traj"), "--T", "100", "--n-paths", "2",
                     "simulate", "--policy", str(optimal_dir / "out" / "policy"),
                     "--mimic", "off"]) == 0
        path = str(optimal_dir / "traj" / "trajectory.csv")
        head = Path(path).read_text().splitlines()[0].split(",")
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
        # the walk is drawn one block per sampling call, of every path:
        # one block for 6 paths, 65 + 65 + 65 + 5 steps for 500
        from growthopt import average, modelio, simulate
        from growthopt.costs import cost_constants
        from growthopt.market import block_steps, growth_floor
        calls = []
        sample = simulate.sample_factor_paths

        def counted(model, z0, T, rng):
            calls.append((len(z0), T))
            return sample(model, z0, T, rng)

        monkeypatch.setattr(simulate, "sample_factor_paths", counted)
        model_path = str(optimal_dir / "model.json")
        policy_path = str(optimal_dir / "out" / name)
        model, spec = load_model(model_path)
        policy = load_policy(policy_path)
        if mode == "auto":
            constants = cost_constants(spec, growth_floor(model)[0])
            strategy = simulate.MimickingStrategy(
                average.build_mimicking(policy, constants))
        else:
            strategy = simulate.GridPolicyStrategy(policy)
        for n, blocks in ((6, [200]), (500, [65, 65, 65, 5])):
            assert blocks[0] == block_steps(n, 200)
            calls.clear()
            out = optimal_dir / f"engine_{mode}_{n}"
            assert main(["--model", model_path, "--output-dir", str(out),
                         "--T", "200", "--n-paths", str(n), "--seed", "31",
                         "simulate", "--policy", policy_path, "--mimic",
                         mode]) == 0
            assert calls == [(n, k) for k in blocks]
            traj = simulate.run(model, spec, strategy, [0.5, 0.5], 100.0, 0,
                                200, 31, stream=0)
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

    def test_non_finite_initial_wealth_exits_1(self, optimal_dir, tmp_path,
                                               capsys):
        # JSON reads 1e400 as inf; a run from it printed growth inf +- nan
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"simulation": {"T": 20, "n_paths": 2, "x0": 1e400}}')
        code = main(["--config", str(cfg), "--model",
                     str(optimal_dir / "model.json"), "--output-dir",
                     str(tmp_path / "sim"), "simulate", "--policy",
                     str(optimal_dir / "out" / "policy"), "--mimic", "off"])
        err = capsys.readouterr().err
        assert code == 1
        assert "initial wealth must be positive and finite, got inf" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sim" / "simulate.json").exists()


def strict_json(path) -> dict:
    """Parse a JSON file, refusing the NaN, Infinity and -Infinity
    constants that strict JSON does not have."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}, which is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestStrictJson:
    """Numbers that are not finite are written as null, in the report and
    in the manifest alike."""

    @staticmethod
    def read_all(out) -> dict:
        docs = {p.name: strict_json(p) for p in out.glob("*.json")}
        assert "manifest.json" in docs
        return docs

    def test_optimal_with_one_beta(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"betas": [0.9]}))
        assert main(["--config", str(cfg)] + base_args(tmp_path)
                    + ["--mesh-order", "4", "optimal"]) == 0
        doc = self.read_all(tmp_path / "out")["optimal.json"]
        assert doc["policy_change_fraction"] is None

    def test_ldcheck_with_one_path(self, tmp_path):
        assert main(base_args(tmp_path) + ["--n-paths", "1", "--seed", "3",
                                           "ldcheck", "--t-max", "256"]) == 0
        doc = self.read_all(tmp_path / "out")["ldcheck.json"]
        assert doc["slope"] is None and doc["slope_se"] is None

    def test_annihilated_simulate(self, optimal_dir, tmp_path):
        # a wealth-free policy below the fixed charge trades every path away
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulation": {"x0": 0.01}}))
        assert main(["--config", str(cfg)] + base_args(tmp_path) + [
            "--T", "50", "--n-paths", "3", "simulate", "--policy",
            str(optimal_dir / "out" / "policy_prop"), "--mimic", "off"]) == 1
        doc = self.read_all(tmp_path / "out")["simulate.json"]
        assert doc["annihilated_paths"] == 3
        assert doc["growth_mean"] is doc["growth_se"] is None
        assert doc["window_mean"] is None


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

    def test_constant_floor_needs_an_explicit_eps(self, tmp_path, capsys):
        # the worst asset returns 1.04 in every (factor, shock) state, so
        # the default eps is 0; the message named an eps never passed
        def constant_floor(doc):
            doc["returns"] = [[[1.18, 1.04], [1.10, 1.04]],
                              [[1.04, 1.17], [1.04, 1.05]]]
        out = tmp_path / "out"
        args = ["--model", write_model(tmp_path, constant_floor),
                "--output-dir", str(out), "--n-paths", "100", "ldcheck"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "the worst-asset log return does not vary" in err
        assert "give --eps" in err and "got 0.0" not in err
        assert "Traceback" not in err
        assert not (out / "ldcheck.json").exists()
        # an explicit eps runs the same model
        assert main(args + ["--eps", "0.01"]) == 0
        assert (out / "ldcheck.json").exists()

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

    def test_tables_built_once_per_variant(self, tmp_path, monkeypatch):
        from growthopt import average, dp
        calls = []
        build = average.build_tables

        def counted(model, spec, grid):
            calls.append(spec.fixed > 0)
            return build(model, spec, grid)

        # the wealth-free tables are built inside dp, as the companion of
        # the fixed-cost ones
        monkeypatch.setattr(average, "build_tables", counted)
        monkeypatch.setattr(dp, "build_tables", counted)
        self.run_optimal(tmp_path, "out", {})
        assert sorted(calls) == [False, True]

    def test_one_wealth_free_warm_start_per_beta(self, tmp_path, monkeypatch):
        # holding pays no charge, so the hold-only iteration has no wealth
        # axis: it runs once per discount, on the wealth-free tables, and
        # serves both the proportional and the fixed-cost solve
        from growthopt import dp
        iterate, hold = dp._iterate, dp._hold
        warm, warm_ndims, inside = [], [], []

        def spy_iterate(update, v, beta, stop_tol, what, *args):
            if what != "hold-only warm start":
                return iterate(update, v, beta, stop_tol, what, *args)
            warm.append((beta, np.ndim(v)))
            inside.append(True)
            try:
                return iterate(update, v, beta, stop_tol, what, *args)
            finally:
                inside.pop()

        def spy_hold(values, *args):
            if inside:
                warm_ndims.append(np.ndim(values))
            return hold(values, *args)

        monkeypatch.setattr(dp, "_iterate", spy_iterate)
        monkeypatch.setattr(dp, "_hold", spy_hold)
        betas = [0.9, 0.95, 0.99]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"simplex_order": 4},
                                   "betas": betas}))
        assert main(["--config", str(cfg)] + base_args(tmp_path)
                    + ["optimal"]) == 0
        assert warm == [(b, 2) for b in betas]
        assert warm_ndims and set(warm_ndims) == {2}
        doc = json.loads((tmp_path / "out" / "optimal.json").read_text())
        counts = doc["diagnostics"]["warm_iterations"]
        assert list(counts) == [str(b) for b in betas]
        for k_prop, k_fixed in counts.values():
            assert type(k_prop) is int and k_prop == k_fixed > 0


class TestConfigKeys:
    @pytest.mark.parametrize("doc, message", [
        ({"typo_key": 1}, "unknown config key 'typo_key' in top level"),
        ({"grid": {"simplex_order": 4, "mesh": 4}},
         "unknown config key 'mesh' in section grid"),
        ({"grid": {"wealth": {"n_x": 4, "xmax": 10.0}}},
         "unknown config key 'xmax' in section grid.wealth"),
        ({"tolerances": {"tol": 1e-6, "cross_tol": 1e-3}},
         "unknown config key 'cross_tol' in section tolerances"),
        ({"tolerances": {"tol": 1e-6, "tie_eps": 1e-10}},
         "unknown config key 'tie_eps' in section tolerances"),
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
        ({"grid": {"wealth": {"n_x": 0}}}, "n_x must be an integer >= 1"),
        ({"betas": 0.9}, "config key 'betas' must be a list of numbers"),
        ({"betas": [0.9, True]},
         "config key 'betas' must be a list of numbers"),
        ({"tolerances": {"tol": "1e-6"}}, "config key 'tol' must be a number"),
        ({"grid": {"simplex_order": 4.0}},
         "config key 'simplex_order' must be an integer"),
        ({"simulation": {"seed": True}},
         "config key 'seed' must be an integer"),
        ({"output_dir": 3}, "config key 'output_dir' must be a string"),
        ({"grid": {"wealth": {"x_max": float("inf")}}},
         "x_max must be a finite number, got inf"),
        ({"grid": {"wealth": {"x_min": float("nan")}}},
         "x_min must be a finite number, got nan"),
        ({"grid": {"simplex_order": 0}},
         "mesh_order must be an integer >= 1, got 0"),
        ({"grid": {"wealth": {"x_min": 0}}},
         "need 0 < x_min < x_max, got x_min=0, x_max=10000.0"),
        ({"grid": {"simplex_order": -2}},
         "mesh_order must be an integer >= 1, got -2"),
        ({"grid": {"wealth": {"x_min": -1.0}}},
         "need 0 < x_min < x_max, got x_min=-1.0, x_max=10000.0"),
        ({"grid": {"wealth": {"n_x": True}}},
         "config key 'n_x' must be an integer, got True"),
        ({"grid": {"wealth": {"n_x": 2.5}}},
         "config key 'n_x' must be an integer, got 2.5"),
        ({"grid": {"wealth": {"x_min": 5.0, "x_max": 5.0}}},
         "need 0 < x_min < x_max, got x_min=5.0, x_max=5.0"),
        ({"grid": {"wealth": {"x_max": None}}},
         "config key 'x_max' must be a number, got None"),
        ({"tolerances": {"tol": 0.0}}, "tol must be a finite number > 0, "
         "got 0.0")])
    def test_wrong_value_type_exits_1(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["--config", str(cfg)] + base_args(tmp_path)
                    + ["optimal"])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--x-max", "inf"], "x_max must be a finite number, got inf"),
        (["--x-max", "nan"], "x_max must be a finite number, got nan"),
        (["--x-max", "0"], "need 0 < x_min < x_max, got x_min=0.001, "
         "x_max=0.0"),
        (["--x-max", "-5"], "need 0 < x_min < x_max, got x_min=0.001, "
         "x_max=-5.0"),
        (["--x-max", "1e-3"], "need 0 < x_min < x_max, got x_min=0.001, "
         "x_max=0.001"),
        (["--mesh-order", "0"], "mesh_order must be an integer >= 1, got 0"),
        (["--mesh-order", "-3"],
         "mesh_order must be an integer >= 1, got -3"),
        (["--mesh-order", str(2 ** 63 - 1)],
         "mesh_order 9223372036854775807 is too large"),
        (["--mesh-order", "3037000498"], "mesh_order 3037000498 is too "
         "large: the mesh of n_assets=2 would have 3037000499 nodes")])
    @pytest.mark.parametrize("command", [
        ["validate"], ["solve", "--beta", "0.9"], ["optimal"],
        ["simulate", "--policy", "policy"], ["ldcheck"], ["verify"]])
    def test_bad_grid_flag_exits_1_for_every_command(self, tmp_path, capsys,
                                                     flags, message, command):
        code = main(base_args(tmp_path) + flags + command)
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["solve", "--beta", "0.9"],
                                         ["optimal"], ["validate"]])
    def test_infinite_tol_exits_1(self, tmp_path, capsys, command):
        # 1e400 reads as inf, which would stop value iteration after a sweep
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tolerances": {"tol": 1e400}}')
        code = main(["--config", str(cfg)] + base_args(tmp_path) + command)
        err = capsys.readouterr().err
        assert code == 1
        assert "tol must be a finite number > 0, got inf" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("key", ["x_min", "x_max"])
    def test_wealth_bound_beyond_a_float_exits_1(self, tmp_path, capsys,
                                                 key):
        # JSON reads a 400-digit integer exactly; it has no float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"grid": {{"wealth": {{"{key}": 1{"0" * 399}}}}}}}')
        code = main(["--config", str(cfg)] + base_args(tmp_path)
                    + ["optimal"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {key} must be a finite number, got an "
                       "integer too large for a float\n")
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

    def test_manifest_times_every_stage(self, tmp_path):
        model = write_model(tmp_path)
        assert main(["--model", model, "--output-dir", str(tmp_path / "o"),
                     "--mesh-order", "2", "optimal"]) == 0
        doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
        stages = doc["timing"]["stages_s"]
        betas = doc["config"]["betas"]
        assert set(stages) == ({"build_tables", "dump", "residual"}
                               | {f"solve.{v}.{b}" for b in betas
                                  for v in ("proportional", "fixed")})
        assert all(s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= doc["timing"]["wall_time_s"] + 1e-3

    def test_convergence_diagnostics_byte_identical(self, tmp_path):
        model = write_model(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"betas": [0.9, 0.99]}))
        texts = []
        for out in ("d1", "d2"):
            assert main(["--config", str(tmp_path / "cfg.json"), "--model",
                         model, "--output-dir", str(tmp_path / out),
                         "--mesh-order", "2", "optimal"]) == 0
            texts.append((tmp_path / out / "optimal.json").read_text())
        assert texts[0] == texts[1]
        doc = json.loads(texts[0])
        diag = doc["diagnostics"]
        assert set(diag["warm_iterations"]) == set(diag["final_step"]) \
            == set(diag["iterations"]) == {str(b) for b in doc["betas"]}
        for b in doc["betas"]:
            warm, steps = diag["warm_iterations"][str(b)], \
                diag["final_step"][str(b)]
            assert len(warm) == len(steps) == 2  # proportional, fixed
            assert all(type(k) is int and k > 0 for k in warm)
            assert all(0.0 <= d <= diag["tol"] * (1.0 - b) / b for d in steps)
        # the benchmark reads the main sweeps in this format
        assert all(len(v) == 2 and all(type(k) is int for k in v)
                   for v in diag["iterations"].values())

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


# sha256 of the files that CLI optimal, simulate and ldcheck write in
# TestOutputDigests; simulate.json without its policy_ref line, which holds
# an absolute path.  A change that claims to keep every output bit for bit
# keeps these; one that moves an answer on purpose re-pins them and says so.
OUTPUT_DIGESTS = {
    "optimal.json":
        "632239aac4d96663855565a6e86a2df7ff79d4dfebf3333db8cb1db2fca8dc2a",
    "policy.csv":
        "416392c75d47b73d3d925bf20104149674ca2cc93a59b302ef19749994725bb4",
    "policy.json":
        "e73c71015ad1d8590b83d56bdd536a14bc9422461d1b05b381272f7ee67d3cdb",
    "policy_prop.csv":
        "d22e9540f16f8e1ea2d349bca4e7b04dfe615237daf5d19a70c3b8e15d41f673",
    "policy_prop.json":
        "67334b582dd44c8cf1812fc0957b1324f3b07b70539185edd95aaa80cac3dec0",
    "simulate.json":
        "8ddeb1786252304d62d21cbd6fcaa740bd901dc2bfecb3787c5ebf8a746b9c10",
    "trajectory.csv":
        "2d60d7b33d1ba7afc05b5d08b6c1766d9e6bc674074f11464f9ef0dc6e3d9886",
    "ld_tail.csv":
        "953c4c125c9fbb70a629b4f051969dad00ff4b3b6594625c21f746930a76424e",
    "ldcheck.json":
        "5a0902ccda933d13a5069bf55fbe4901797f428ad59bb4aa74fb29025ef1086d",
}


class TestOutputDigests:
    def test_outputs_keep_their_digests(self, tmp_path):
        out = tmp_path / "out"
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"betas": [0.9, 0.99], "tolerances": {"tol": 1e-7}}))
        args = ["--model", bundled_model_path(), "--output-dir", str(out),
                "--seed", "4242"]
        assert main(["--config", str(tmp_path / "cfg.json")] + args
                    + ["--mesh-order", "4", "optimal"]) == 0
        assert main(args + ["--T", "300", "--n-paths", "20", "simulate",
                            "--policy", str(out / "policy_prop"),
                            "--mimic", "auto"]) == 0
        assert main(args + ["--n-paths", "2000", "ldcheck",
                            "--t-max", "64"]) == 0
        got = {}
        for name in OUTPUT_DIGESTS:
            body = (out / name).read_bytes()
            if name == "simulate.json":
                body = b"".join(
                    line for line in body.splitlines(keepends=True)
                    if not line.lstrip().startswith(b'"policy_ref":'))
            got[name] = hashlib.sha256(body).hexdigest()
        assert got == OUTPUT_DIGESTS


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_empty_config_exits_2(self, tmp_path, capsys):
        # an empty config sets nothing, so no model is given
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert main(["--config", str(cfg), "validate"]) == 2
        assert "no model file given" in capsys.readouterr().err

    def test_empty_config_runs_on_the_defaults(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert main(["--config", str(cfg)] + base_args(tmp_path, "a")
                    + ["validate"]) == 0
        assert main(base_args(tmp_path, "b") + ["validate"]) == 0
        configs = [json.loads((tmp_path / out / "manifest.json").read_text()
                              )["config"] for out in ("a", "b")]
        assert configs[0] == dict(configs[1], output_dir=str(tmp_path / "a"))

    @pytest.mark.parametrize("text", ["[]", "null", "0", "[{}]"])
    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys,
                                                  text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["--config", str(cfg)] + base_args(tmp_path)
                    + ["validate"])
        err = capsys.readouterr().err
        assert code == 1
        assert "config top level must be a JSON object" in err
        assert not (tmp_path / "out").exists()

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
            "tolerances": {"tol": 1e-5},
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


    @pytest.mark.parametrize("command", ["validate", "optimal", "ldcheck"])
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["returns"][1][0].__setitem__(1, 0.0),
         "returns[1][0][1] is 0.0: returns must be finite and > 0"),
        (lambda doc: doc["returns"][1][0].__setitem__(1, -0.5),
         "returns[1][0][1] is -0.5: returns must be finite and > 0"),
        (lambda doc: doc["returns"][1][0].__setitem__(1, float("nan")),
         "returns[1][0][1] is nan: returns must be finite and > 0"),
        (lambda doc: doc["returns"][1][0].__setitem__(1, float("inf")),
         "returns[1][0][1] is inf: returns must be finite and > 0"),
        (lambda doc: doc["returns"].__setitem__(1, [1.05, 1.0]),
         "returns is not a table of numbers"),
        (lambda doc: doc.__setitem__("returns", [r[0] for r in doc["returns"]]),
         "returns must have shape (n_factors, n_shocks, n_assets) = "
         "(2, 2, d >= 1), got (2, 2)"),
        (lambda doc: doc["costs"].__setitem__("fixed", float("nan")),
         "fixed cost nan must be finite and >= 0"),
        (lambda doc: doc["costs"].__setitem__("fixed", float("inf")),
         "fixed cost inf must be finite and >= 0"),
        (lambda doc: doc["costs"].__setitem__("fixed", None),
         "fixed cost None must be finite and >= 0"),
        (lambda doc: doc["costs"].__setitem__("buy", [float("nan"), 0.003]),
         "buy rates [nan, 0.003] must lie in [0, 1)"),
        (lambda doc: doc["costs"].__setitem__("sell", "0.003"),
         "buy and sell rates must be non-empty vectors of equal length"),
        (lambda doc: doc["costs"].__setitem__("sell", ["a", "b"]),
         "sell is not a table of numbers"),
        # JSON true and false, which float() reads as 1.0 and 0.0
        (lambda doc: doc["returns"][1][0].__setitem__(1, True),
         "returns[1][0][1] is True: a table must hold numbers, not booleans"),
        (lambda doc: doc["factors"].__setitem__("transition",
                                                [[0.9, 0.1], [True, False]]),
         "model section 'factors': transition[1][0] is True: a table must "
         "hold numbers, not booleans"),
        (lambda doc: doc["shocks"].__setitem__("probs", ["0.5", True]),
         "model section 'shocks': probs[1] is True: a table must hold "
         "numbers, not booleans"),
        (lambda doc: doc["costs"].__setitem__("buy", [False, 0.003]),
         "buy[0] is False: a table must hold numbers, not booleans"),
        (lambda doc: doc["costs"].__setitem__("sell", [0.003, False]),
         "sell[1] is False: a table must hold numbers, not booleans")],
        ids=["return_0", "return_neg", "return_nan", "return_inf",
             "ragged_returns", "returns_2d", "fixed_nan", "fixed_inf",
             "fixed_null", "buy_nan", "sell_scalar", "sell_strings",
             "return_bool", "transition_bool", "probs_bool", "buy_bool",
             "sell_bool"])
    def test_bad_model_exits_1_naming_the_field(self, tmp_path, capsys,
                                                command, edit, message):
        # the JSON carries NaN and Infinity literals, which json reads
        model = write_model(tmp_path, edit)
        out = tmp_path / "out"
        assert main(["--model", model, "--output-dir", str(out),
                     "--n-paths", "100", command]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_memory_error_exits_1(self, tmp_path, capsys, monkeypatch):
        # a library call whose arrays do not fit (a simulate horizon too
        # long for the recorder, say) ends with a message; the test makes
        # no real oversized request, as whether one fails at once depends
        # on the machine's overcommit setting
        from growthopt import simulate

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr(simulate, "ld_tail", refuse)
        out = tmp_path / "out"
        assert main(["--model", write_model(tmp_path), "--output-dir",
                     str(out), "--n-paths", "10", "ldcheck"]) == 1
        err = capsys.readouterr().err
        assert "error: Unable to allocate 745. GiB" in err
        assert "Traceback" not in err and not (out / "ldcheck.json").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_1(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        assert main(["--model", write_model(tmp_path), "--output-dir",
                     str(out), "--n-paths", "10", "--seed", seed,
                     "ldcheck"]) == 1
        err = capsys.readouterr().err
        assert f"seed must be an integer in [0, 2**64), got {seed}" in err
        assert "Traceback" not in err and not out.exists()


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

    @pytest.mark.parametrize("assets", [2.7, 2.0, "2", "two", True, 3, None])
    def test_assets_must_be_the_integer_asset_count(self, assets):
        with open(bundled_model_path()) as fh:
            doc = json.load(fh)
        doc["assets"] = assets
        with pytest.raises(ValueError, match=re.escape(
                "model key 'assets' must be the integer 2, the length of the "
                f"last axis of returns, got {assets!r}")):
            parse_model_dict(doc)

    def test_assets_may_be_left_out(self):
        with open(bundled_model_path()) as fh:
            doc = json.load(fh)
        del doc["assets"]
        model, spec = parse_model_dict(doc)
        assert model.n_assets == spec.n_assets == 2

    def test_shape_mismatch_rejected(self):
        doc = {
            "assets": 2,
            "factors": {"transition": [[1.0]]},
            "shocks": {"probs": [1.0]},
            "returns": [[[1.05]]],
        }
        with pytest.raises(ValueError):
            parse_model_dict(doc)
