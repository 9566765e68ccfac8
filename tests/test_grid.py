"""Simplex mesh, wealth grid and interpolation lookups."""

import math
import re

import numpy as np
import pytest

from conftest import GRID_SETTINGS, REFUSED_GRID_SETTINGS
from dp_oracle import grid_interp
from growthopt import Policy, StateGrid, ValueFunction, simplex_mesh
from growthopt.grid import MAX_NODES, check_settings


class TestSimplexMesh:
    def test_counts(self):
        # compositions of m into d parts: C(m + d - 1, d - 1)
        assert simplex_mesh(1, 5).shape == (1, 1)
        assert simplex_mesh(2, 4).shape == (5, 2)
        assert simplex_mesh(2, 8).shape == (9, 2)
        assert simplex_mesh(3, 8).shape == (45, 3)

    def test_nodes_sum_to_one_exactly(self):
        nodes = simplex_mesh(3, 8)
        assert (nodes * 8 == np.rint(nodes * 8)).all()
        np.testing.assert_allclose(nodes.sum(axis=1), 1.0, atol=1e-15)

    def test_lexicographic_order(self):
        nodes = simplex_mesh(2, 4)
        np.testing.assert_allclose(nodes[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_node_keys_ascend(self, d):
        # nearest_node returns the rank of a lattice point's key as its
        # node index, which needs the mesh listed in ascending key order
        for m in (1, 2, 3, 4, 8, 16):
            ints = np.rint(simplex_mesh(d, m) * m).astype(np.int64)
            keys = ints @ (m + 1) ** np.arange(d - 1, -1, -1)
            assert (np.diff(keys) > 0).all()
            np.testing.assert_array_equal(StateGrid.build(d, m, 1)._keys,
                                          keys)

    @pytest.mark.parametrize("n_assets, order, message", [
        (0, 4, "n_assets must be an integer >= 1, got 0"),
        (2, 0, "mesh_order must be an integer >= 1, got 0")])
    def test_refuses_what_check_settings_refuses(self, n_assets, order,
                                                 message):
        # unchecked, (0, 4) recursed without end and (2, 0) divided by 0
        with pytest.raises(ValueError, match=re.escape(message)):
            simplex_mesh(n_assets, order)

    def test_nodes_out_of_key_order_are_refused(self):
        nodes = simplex_mesh(3, 4)
        for bad in (nodes[::-1], nodes[[0, 0, 1]]):
            with pytest.raises(ValueError, match="ascend in lexicographic"):
                StateGrid(nodes=bad, mesh_order=4, n_z=1)


class TestSettings:
    @pytest.mark.parametrize("key, val, message", REFUSED_GRID_SETTINGS)
    def test_build_refuses_and_names_the_key(self, key, val, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            StateGrid.build(**{**GRID_SETTINGS, key: val})

    @pytest.mark.parametrize("n_assets, order", [(2, MAX_NODES - 1),
                                                 (3, 1446), (4, 182)])
    def test_node_count_is_bounded_without_listing_the_nodes(self, n_assets,
                                                             order):
        # C(order + n_assets - 1, n_assets - 1) nodes: the largest order
        # within MAX_NODES passes, the next one is refused; check_settings
        # computes the count, so nothing here lists a node
        def count(m):
            return math.comb(m + n_assets - 1, n_assets - 1)

        assert count(order) <= MAX_NODES < count(order + 1)
        check_settings(n_assets=n_assets, mesh_order=order)
        with pytest.raises(ValueError, match=re.escape(
                f"mesh_order {order + 1} is too large: the mesh of "
                f"n_assets={n_assets} would have {count(order + 1)} nodes")):
            check_settings(n_assets=n_assets, mesh_order=order + 1)

    def test_two_asset_mesh_256_builds(self):
        grid = StateGrid.build(2, 256, 2, x_min=1e-3, x_max=1e4, n_x=16)
        assert grid.shape == (257, 16, 2)

    def test_wealth_nodes_that_do_not_ascend_are_refused(self):
        # 16 geometric nodes between two neighbouring doubles repeat
        with pytest.raises(ValueError, match="too close for n_x=16"):
            StateGrid.build(2, 4, 1, x_min=1.0, x_max=np.nextafter(1.0, 2.0),
                            n_x=16)


class TestNearestNode:
    def test_exact_nodes_roundtrip(self):
        grid = StateGrid.build(3, 6, 1)
        idx = grid.nearest_node(grid.nodes)
        np.testing.assert_array_equal(idx, np.arange(grid.n_nodes))

    def test_snaps_to_closest(self):
        grid = StateGrid.build(2, 4, 1)
        assert grid.node_index([0.26, 0.74]) == grid.node_index([0.25, 0.75])
        assert grid.node_index([0.35, 0.65]) == grid.node_index([0.25, 0.75])

    def test_sum_constraint_repair(self):
        # each coordinate rounds up, so the surplus must be repaid
        grid = StateGrid.build(3, 10, 1)
        pi = np.array([0.25, 0.35, 0.40])
        node = grid.nodes[grid.node_index(pi)]
        assert node.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.abs(node - pi).max() <= 0.1

    def test_deterministic_on_ties(self):
        grid = StateGrid.build(2, 2, 1)
        a = grid.node_index([0.25, 0.75])
        b = grid.node_index([0.25, 0.75])
        assert a == b

    def test_nearest_among_all_nodes(self):
        rng = np.random.default_rng(0)
        grid = StateGrid.build(3, 7, 1)
        pts = rng.dirichlet(np.ones(3), 500)
        idx = grid.nearest_node(pts)
        d_chosen = np.linalg.norm(grid.nodes[idx] - pts, axis=1)
        d_best = np.linalg.norm(grid.nodes[None, :, :] - pts[:, None, :],
                                axis=2).min(axis=1)
        np.testing.assert_allclose(d_chosen, d_best, atol=1e-12)


def oracle_nearest_node(grid, pi):
    """``nearest_node`` as it was before it read the key and the coordinate
    sum from one product: ``k.sum``, ``.any()`` and ``k @ radix``."""
    pi = np.atleast_2d(np.asarray(pi, dtype=float))
    y = pi * grid.mesh_order
    k = np.rint(y).astype(np.int64)
    overshoot = k.sum(axis=1) - grid.mesh_order
    if overshoot.any():
        resid = k - y
        for row in np.nonzero(overshoot)[0]:
            d = int(overshoot[row])
            if d > 0:
                order = np.argsort(-resid[row], kind="stable")
                k[row, order[:d]] -= 1
            else:
                order = np.argsort(resid[row], kind="stable")
                k[row, order[:-d]] += 1
    radix = (grid.mesh_order + 1) ** np.arange(grid.n_assets - 1, -1, -1)
    return grid._keys.searchsorted(k @ radix)


class TestNearestNodeOracle:
    @pytest.mark.parametrize("d, m", [(1, 3), (2, 8), (3, 7), (5, 4)])
    def test_matches_oracle(self, d, m):
        rng = np.random.default_rng([d, m])
        grid = StateGrid.build(d, m, 1)
        pts = rng.dirichlet(np.ones(d), 400)
        # lattice midpoints round every coordinate the same way, so their
        # sums overshoot or undershoot m and need the repair loop
        pts[:100] = (np.floor(pts[:100] * m) + 0.5) / m
        for batch in (pts[:1], pts[:7], pts):
            np.testing.assert_array_equal(grid.nearest_node(batch),
                                          oracle_nearest_node(grid, batch))
        np.testing.assert_array_equal(grid.nearest_node(pts[0]),
                                      oracle_nearest_node(grid, pts[0]))


def one_row_cases(rng, grid):
    """Rows for the one-row lookups: random rows, lattice midpoints (every
    coordinate rounds the same way), the same rows scaled up and down (a
    surplus and a deficit to repay), points halfway between two nodes, the
    nodes themselves and rows with a negative coordinate."""
    d, m, nodes = grid.n_assets, grid.mesh_order, grid.nodes
    pts = rng.dirichlet(np.ones(d), 200)
    mid = (np.floor(pts[:60] * m) + 0.5) / m
    pairs = rng.integers(grid.n_nodes, size=(40, 2))
    halfway = 0.5 * (nodes[pairs[:, 0]] + nodes[pairs[:, 1]])
    negative = pts[:20].copy()
    negative[:, 0] = -rng.uniform(0.01, 0.5, 20)
    return np.vstack([pts, mid, 1.3 * pts[:40], 0.7 * pts[:40], halfway,
                      nodes, negative])


class TestOneRowLookups:
    """``node_index`` and ``state_index`` read one row in Python numbers:
    the same nodes and flat indices as the vectorized lookups."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 7, 64])
    def test_node_index_is_nearest_node_of_the_row(self, d, m):
        rng = np.random.default_rng([d, m, 25])
        grid = StateGrid.build(d, m, 1)
        rows = one_row_cases(rng, grid)
        surplus = np.rint(rows * m).sum(axis=1) - m
        assert (surplus > 0).any() and (surplus < 0).any()
        want = grid.nearest_node(rows)
        for row, node in zip(rows, want.tolist()):
            got = grid.node_index(row)
            assert type(got) is int
            assert got == node == grid.nearest_node(row[None])[0], row
            assert grid.node_index(row.tolist()) == node

    @pytest.mark.parametrize("row", [
        [np.nan, 0.5], [0.5, np.inf], [-np.inf, 1.0], [0.5], [0.2, 0.3, 0.5],
        []], ids=["nan", "inf", "-inf", "short", "long", "empty"])
    def test_node_index_refuses_a_row_it_cannot_read(self, row):
        # a bare zip would truncate a long row, and round(inf) raises
        # OverflowError
        grid = StateGrid.build(2, 8, 1)
        with pytest.raises(ValueError, match="row of 2 finite proportions"):
            grid.node_index(row)
        with pytest.raises(ValueError, match="row of 2 finite proportions"):
            grid.node_index(np.array(row))

    @pytest.mark.parametrize("d, wealth", [(2, False), (2, True), (3, False),
                                           (3, True)])
    def test_state_index_is_the_flat_index_of_the_lookups(self, d, wealth):
        rng = np.random.default_rng([d, wealth, 25])
        n_z = 3
        grid = StateGrid.build(d, 7, n_z, *((1e-2, 1e3, 6) if wealth else ()))
        pi = one_row_cases(rng, grid)
        pi = pi[(pi >= 0).all(axis=1) & (pi.sum(axis=1) <= 1.0 + 1e-12)]
        n = len(pi)
        x = np.exp(rng.uniform(np.log(1e-4), np.log(1e5), n))
        x[:6] = [1e-300, 1e-2, 1e3, 1e300, np.inf, 50.0]
        z = rng.integers(n_z, size=n)
        axes = ((grid.nearest_node(pi),)
                + ((grid.nearest_wealth(x),) if wealth else ()) + (z,))
        want = np.ravel_multi_index(axes, grid.shape)
        for k in range(n):
            got = grid.state_index(pi[k], x[k], z[k])
            assert type(got) is int and got == want[k], k
            assert grid.state_index(pi[k].tolist(), float(x[k]),
                                    int(z[k])) == got

    def test_state_index_refuses_a_state_off_the_grid(self):
        grid = StateGrid.build(2, 4, 2)
        assert grid.state_index([1.0, 0.0], None, 1) == grid.shape[0] * 2 - 1
        # z outside the factors, and a row whose key lies past every node
        for pi, z in (([1.0, 0.0], 2), ([0.5, 0.5], -1), ([1.5, -0.5], 0)):
            with pytest.raises(ValueError, match="name no state"):
                grid.state_index(pi, None, z)


def oracle_wealth_pos(grid, x):
    """The lookup with its constants computed on every call, via np.clip."""
    x = np.asarray(x, dtype=float)
    n_x = grid.n_wealth
    if n_x == 1:
        j0 = np.zeros(x.shape, dtype=np.int64)
        return j0, np.zeros(x.shape)
    lx0 = np.log(grid.wealth[0])
    dlx = (np.log(grid.wealth[-1]) - lx0) / (n_x - 1)
    pos = np.clip((np.log(x) - lx0) / dlx, 0.0, n_x - 1.0)
    j0 = np.minimum(pos.astype(np.int64), n_x - 2)
    return j0, pos - j0


class TestWealthGrid:
    @pytest.mark.parametrize("n_x", [1, 2, 16])
    def test_positions_match_clip_oracle(self, n_x):
        grid = StateGrid.build(2, 4, 1, x_min=1e-3, x_max=1e4, n_x=n_x)
        w = grid.wealth
        between = np.sqrt(w[:-1] * w[1:]) if n_x > 1 else w
        off = np.random.default_rng(n_x).uniform(0.01, 0.99, 64)
        x = np.concatenate([[1e-9, 5e-4, np.nextafter(w[0], 0)], w,
                            np.nextafter(w, np.inf), between,
                            w[0] + off * (w[-1] - w[0]),
                            [np.nextafter(w[-1], np.inf), 2e4, 1e30]])
        for arg in (x, x[:, None], x[5]):
            got, want = grid.wealth_pos(arg), oracle_wealth_pos(grid, arg)
            for g, o in zip(got, want):
                assert type(g) is type(o) and g.dtype == o.dtype
                assert np.shape(g) == np.shape(o)
                assert np.asarray(g).tobytes() == np.asarray(o).tobytes()

    def test_geometric_spacing(self):
        grid = StateGrid.build(2, 4, 1, x_min=0.5, x_max=8.0, n_x=5)
        ratios = grid.wealth[1:] / grid.wealth[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
        assert grid.wealth[0] == 0.5 and grid.wealth[-1] == 8.0

    def test_positions_clamp(self):
        grid = StateGrid.build(2, 4, 1, x_min=1.0, x_max=100.0, n_x=5)
        j0, frac = grid.wealth_pos(np.array([0.01, 1e6]))
        assert j0[0] == 0 and frac[0] == 0.0
        assert j0[1] == 3 and frac[1] == 1.0

    def test_positions_interpolate_in_log(self):
        grid = StateGrid.build(2, 4, 1, x_min=1.0, x_max=16.0, n_x=5)
        x = math.sqrt(2.0)  # halfway between nodes 1 and 2 in log space
        j0, frac = grid.wealth_pos(np.array([x]))
        assert j0[0] == 0
        assert frac[0] == pytest.approx(0.5, abs=1e-12)

    def test_requires_increasing_positive(self):
        with pytest.raises(ValueError):
            StateGrid.build(2, 4, 1, x_min=5.0, x_max=1.0, n_x=4)

    def test_interp_values(self):
        grid = StateGrid.build(2, 2, 2, x_min=1.0, x_max=4.0, n_x=3)
        values = np.zeros((grid.n_nodes, 3, 2))
        values[:, :, 0] = np.log(grid.wealth)[None, :]
        out = grid_interp(grid, values, np.array([0, 1]),
                          np.array([2.0, 3.0]), np.array([0, 0]))
        np.testing.assert_allclose(out, np.log([2.0, 3.0]), atol=1e-12)

    def test_without_wealth(self):
        grid = StateGrid.build(2, 4, 2, x_min=1.0, x_max=10.0, n_x=4)
        flat = grid.without_wealth()
        assert not flat.has_wealth_axis
        assert flat.n_nodes == grid.n_nodes


class TestTableLayout:
    def test_shape_follows_the_wealth_axis(self):
        grid = StateGrid.build(2, 4, 3, x_min=1.0, x_max=10.0, n_x=6)
        assert grid.shape == (5, 6, 3)
        assert grid.without_wealth().shape == (5, 3)

    def test_variant_and_wealth_free_follow_the_grid(self):
        grid = StateGrid.build(2, 4, 2, x_min=1.0, x_max=10.0, n_x=4)
        for g, variant in ((grid, "fixed"),
                           (grid.without_wealth(), "proportional")):
            v = ValueFunction(g, np.zeros(g.shape), 0.9)
            pol = Policy(g, np.zeros(g.shape, dtype=bool),
                         np.zeros(g.shape, dtype=np.int64), 0.9)
            assert v.variant == variant == v.copy_with(v.values).variant
            assert pol.wealth_free == (variant == "proportional")

    def test_variant_is_not_settable(self):
        grid = StateGrid.build(2, 4, 2)
        v = ValueFunction(grid, np.zeros(grid.shape), 0.9)
        with pytest.raises(AttributeError):
            v.variant = "fixed"
        with pytest.raises(TypeError):
            ValueFunction(grid, np.zeros(grid.shape), 0.9, "proportional")

    @pytest.mark.parametrize("wealth", [True, False])
    def test_tables_of_another_shape_are_refused(self, wealth):
        grid = StateGrid.build(2, 4, 2, x_min=1.0, x_max=10.0, n_x=4)
        if not wealth:
            grid = grid.without_wealth()
        good = np.zeros(grid.shape)
        for bad in (np.zeros((5, 4, 2) if not wealth else (5, 2)),
                    np.zeros((4,) + grid.shape[1:]), np.zeros(grid.shape[:-1])):
            with pytest.raises(ValueError, match="values has shape"):
                ValueFunction(grid, bad, 0.9)
            with pytest.raises(ValueError, match="impulse has shape"):
                Policy(grid, bad.astype(bool), good.astype(np.int64), 0.9)
            with pytest.raises(ValueError, match="target has shape"):
                Policy(grid, good.astype(bool), bad.astype(np.int64), 0.9)
