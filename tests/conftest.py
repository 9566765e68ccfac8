import numpy as np
import pytest

from growthopt import CostSpec, MarketModel, bundled_model_path, load_model

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def two_asset():
    """Bundled 2-asset, 2-factor, 2-shock model with its cost spec."""
    return load_model(bundled_model_path())


@pytest.fixture(scope="session")
def model2(two_asset):
    return two_asset[0]


@pytest.fixture(scope="session")
def spec2(two_asset):
    return two_asset[1]


@pytest.fixture()
def single_asset_model():
    """One asset, one factor, two shocks: growth is a plain i.i.d. average."""
    return MarketModel(
        transition=[[1.0]],
        shock_probs=[0.5, 0.5],
        returns=[[[1.1], [0.98]]],
    )


@pytest.fixture()
def free_spec2():
    return CostSpec(buy=[0.0, 0.0], sell=[0.0, 0.0], fixed=0.0)


def random_model(rng, n_z=2, n_s=2, d=2, mix=0.75):
    """Random mixing chain with returns bounded away from zero."""
    raw = rng.uniform(0.05, 1.0, (n_z, n_z))
    transition = mix * raw / raw.sum(axis=1, keepdims=True) \
        + (1 - mix) * np.full((n_z, n_z), 1.0 / n_z)
    probs = rng.dirichlet(np.ones(n_s) * 4)
    returns = rng.uniform(0.85, 1.25, (n_z, n_s, d))
    return MarketModel(transition=transition, shock_probs=probs, returns=returns)


# settings of the wealth grid that the policy dumps of test_cli are made on
GRID_SETTINGS = {"n_assets": 2, "mesh_order": 4, "n_z": 2,
                 "x_min": 1e-2, "x_max": 1e3, "n_x": 6}

# one refused value of each kind in GRID_SETTINGS: (key, value, the message
# of StateGrid.build); None stands for a wealth key left out
_ORDER = "need 0 < x_min < x_max, got x_min={}, x_max=1000.0"
REFUSED_GRID_SETTINGS = [
    pytest.param(key, val, message, id=f"{key} {name}")
    for key, val, name, message in [
        ("x_max", float("inf"), "inf",
         "x_max must be a finite number, got inf"),
        ("x_min", float("-inf"), "-inf",
         "x_min must be a finite number, got -inf"),
        ("x_max", float("nan"), "nan",
         "x_max must be a finite number, got nan"),
        ("x_min", "1e-2", "string",
         "x_min must be a finite number, got '1e-2'"),
        ("n_x", 0, "0", "n_x must be an integer >= 1, got 0"),
        ("n_z", 0, "0", "n_z must be an integer >= 1, got 0"),
        ("n_assets", 0, "0", "n_assets must be an integer >= 1, got 0"),
        ("x_min", 0.0, "0", _ORDER.format(0.0)),
        ("mesh_order", -2, "negative",
         "mesh_order must be an integer >= 1, got -2"),
        ("x_min", -1.0, "negative", _ORDER.format(-1.0)),
        ("n_x", True, "bool", "n_x must be an integer >= 1, got True"),
        ("mesh_order", True, "bool",
         "mesh_order must be an integer >= 1, got True"),
        ("x_max", True, "bool", "x_max must be a finite number, got True"),
        ("n_x", 2.5, "float", "n_x must be an integer >= 1, got 2.5"),
        ("n_z", 2.0, "float", "n_z must be an integer >= 1, got 2.0"),
        ("n_assets", 2.0, "float",
         "n_assets must be an integer >= 1, got 2.0"),
        ("x_min", 1e3, "equal to x_max", _ORDER.format(1000.0)),
        ("x_min", 5e3, "above x_max", _ORDER.format(5000.0)),
        ("n_x", None, "left out", "n_x must be an integer >= 1, got None"),
        ("x_max", None, "left out",
         "x_max must be a finite number, got None"),
        # math.isfinite raises OverflowError on an int beyond a float
        ("x_max", 10 ** 400, "400 digits",
         "x_max must be a finite number, got an integer too large for a "
         "float"),
        ("x_min", -10 ** 400, "400 digits",
         "x_min must be a finite number, got an integer too large for a "
         "float"),
        # lattice keys (mesh_order + 1) ** n_assets past int64
        ("mesh_order", 10 ** 30, "keys past int64",
         "mesh_order 1000000000000000000000000000000 is too large: lattice "
         "keys (mesh_order + 1) ** n_assets with n_assets=2 overflow int64"),
        ("mesh_order", 3_037_000_499, "keys one past int64",
         "mesh_order 3037000499 is too large"),
        # keys in int64, but C(mesh_order + 1, 1) nodes past MAX_NODES
        ("mesh_order", 3_037_000_498, "nodes past the bound",
         "mesh_order 3037000498 is too large: the mesh of n_assets=2 would "
         "have 3037000499 nodes, above 1048576")]]
