"""State discretization: simplex mesh, geometric wealth grid, interpolation.

The proportion simplex is meshed by all compositions with coordinates that
are multiples of 1/m (mesh order m), listed in ascending lexicographic order
of their integer coordinate tuples; node indices therefore give a canonical
deterministic tie-break.  Wealth, when present, lives on a strictly
increasing geometric grid and off-grid values are resolved linearly in
log-wealth.  Off-mesh proportions always snap to the nearest mesh node.

The grid owns the table layout: ``StateGrid.shape`` gives the shape of
every value and policy table on it, with a wealth axis only where the grid
has one, and ``ValueFunction`` and ``Policy`` refuse tables of other shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex_mesh(n_assets: int, order: int) -> np.ndarray:
    """All proportion vectors with coordinates k/order, lexicographic order."""
    if n_assets < 1 or order < 1:
        raise ValueError("need n_assets >= 1 and order >= 1")
    combos = np.array(list(_compositions(order, n_assets)), dtype=float)
    return combos / order


@dataclass
class StateGrid:
    """Discretized (proportion, wealth, factor) state space.

    ``wealth`` is None for the proportional-cost problem, whose value
    functions carry no wealth axis.
    """

    nodes: np.ndarray
    mesh_order: int
    n_z: int
    wealth: Optional[np.ndarray] = None
    _keys: np.ndarray = field(init=False, repr=False)
    _perm: np.ndarray = field(init=False, repr=False)
    _key_sum: np.ndarray = field(init=False, repr=False)
    _lx0: Optional[float] = field(init=False, repr=False, default=None)
    _dlx: Optional[float] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.wealth is not None:
            self.wealth = np.asarray(self.wealth, dtype=float)
            if self.wealth.ndim != 1 or np.any(np.diff(self.wealth) <= 0):
                raise ValueError("wealth grid must be strictly increasing")
            if self.wealth[0] <= 0:
                raise ValueError("wealth grid must be positive")
            if self.n_wealth > 1:
                # origin and step of the grid in log-wealth, for wealth_pos
                lx0 = np.log(self.wealth[0])
                self._lx0 = float(lx0)
                self._dlx = float((np.log(self.wealth[-1]) - lx0)
                                  / (self.n_wealth - 1))
        # integer keys for O(log n) nearest-node lookup; one product with
        # ``_key_sum`` gives a lattice point's key and its coordinate sum
        ints = np.rint(self.nodes * self.mesh_order).astype(np.int64)
        radix = (self.mesh_order + 1) ** np.arange(self.n_assets - 1, -1, -1,
                                                   dtype=np.int64)
        self._key_sum = np.stack([radix, np.ones_like(radix)], axis=1)
        keys = ints @ radix
        self._perm = np.argsort(keys)
        self._keys = keys[self._perm]

    @classmethod
    def build(cls, n_assets: int, mesh_order: int, n_z: int,
              x_min: Optional[float] = None, x_max: Optional[float] = None,
              n_x: Optional[int] = None) -> "StateGrid":
        nodes = simplex_mesh(n_assets, mesh_order)
        wealth = None
        if x_min is not None:
            if x_max is None or n_x is None:
                raise ValueError("wealth grid needs x_min, x_max and n_x")
            if not 0 < x_min < x_max:
                raise ValueError("need 0 < x_min < x_max")
            wealth = np.geomspace(x_min, x_max, n_x)
        return cls(nodes=nodes, mesh_order=mesh_order, n_z=n_z, wealth=wealth)

    @property
    def n_assets(self) -> int:
        return self.nodes.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_wealth(self) -> int:
        return 0 if self.wealth is None else self.wealth.shape[0]

    @property
    def has_wealth_axis(self) -> bool:
        return self.wealth is not None

    @property
    def shape(self) -> tuple:
        """Shape of the value and policy tables on this grid."""
        wealth = (self.n_wealth,) if self.has_wealth_axis else ()
        return (self.n_nodes,) + wealth + (self.n_z,)

    def without_wealth(self) -> "StateGrid":
        return replace(self, wealth=None)

    def spec_dict(self) -> dict:
        out = {
            "n_assets": self.n_assets,
            "mesh_order": self.mesh_order,
            "n_z": self.n_z,
        }
        if self.wealth is not None:
            out["wealth"] = {
                "x_min": float(self.wealth[0]),
                "x_max": float(self.wealth[-1]),
                "n_x": int(self.n_wealth),
            }
        return out

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def nearest_node(self, pi) -> np.ndarray:
        """Indices of the mesh nodes nearest to proportion rows ``pi``.

        Coordinates are rounded on the 1/m lattice and the rounding surplus
        is repaid on the coordinates rounded furthest, which minimizes the
        distance among lattice points summing to m.  Ties resolve to the
        lowest coordinate index, making lookups deterministic.
        """
        pi = np.atleast_2d(np.asarray(pi, dtype=float))
        y = pi * self.mesh_order
        k = np.rint(y).astype(np.int64)
        key_sum = k @ self._key_sum
        overshoot = key_sum[:, 1] - self.mesh_order
        if np.count_nonzero(overshoot):
            resid = k - y
            for row in np.nonzero(overshoot)[0]:
                d = int(overshoot[row])
                if d > 0:
                    order = np.argsort(-resid[row], kind="stable")
                    k[row, order[:d]] -= 1
                else:
                    order = np.argsort(resid[row], kind="stable")
                    k[row, order[:-d]] += 1
            key_sum = k @ self._key_sum
        return self._perm[self._keys.searchsorted(key_sum[:, 0])]

    def node_index(self, pi) -> int:
        return int(self.nearest_node(np.asarray(pi))[0])

    def wealth_pos(self, x):
        """Lower index and interpolation weight for wealth values ``x``.

        Positions are computed linearly in log-wealth and clamped to the
        grid range.
        """
        if self.wealth is None:
            raise ValueError("grid has no wealth axis")
        x = np.asarray(x, dtype=float)
        n_x = self.n_wealth
        if n_x == 1:
            return np.zeros(x.shape, dtype=np.int64), np.zeros(x.shape)
        pos = np.log(x, out=np.empty(x.shape))
        pos -= self._lx0
        pos /= self._dlx
        # np.clip(pos, 0.0, n_x - 1.0) bit for bit: the bound goes first, so
        # that a -0.0 position stays -0.0 as it does in np.clip
        np.maximum(0.0, pos, out=pos)
        np.minimum(pos, n_x - 1.0, out=pos)
        j0 = np.minimum(pos.astype(np.int64), n_x - 2)
        return j0, pos - j0

    def nearest_wealth(self, x) -> np.ndarray:
        j0, frac = self.wealth_pos(x)
        return j0 + np.rint(frac).astype(np.int64)

    def interp(self, values: np.ndarray, node_idx, x, z):
        """Evaluate a value table at (node index, wealth, factor) points."""
        if not self.has_wealth_axis:
            return values[node_idx, z]
        j0, frac = self.wealth_pos(x)
        lo = values[node_idx, j0, z]
        hi = values[node_idx, np.minimum(j0 + 1, self.n_wealth - 1), z]
        return (1.0 - frac) * lo + frac * hi


def _require_shape(grid: StateGrid, **tables):
    for name, table in tables.items():
        if np.shape(table) != grid.shape:
            raise ValueError(f"{name} has shape {np.shape(table)}, but "
                             f"tables on its grid have shape {grid.shape}")


@dataclass
class ValueFunction:
    """Value table of shape ``grid.shape`` on a StateGrid: the fixed-cost
    variant on a grid with a wealth axis, the proportional one without."""

    grid: StateGrid
    values: np.ndarray
    beta: float

    def __post_init__(self):
        _require_shape(self.grid, values=self.values)

    @property
    def variant(self) -> str:
        return "fixed" if self.grid.has_wealth_axis else "proportional"

    def copy_with(self, values) -> "ValueFunction":
        return ValueFunction(grid=self.grid, values=values, beta=self.beta)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass
class Policy:
    """Greedy rebalance rule on a StateGrid, tables of shape ``grid.shape``.

    ``impulse`` flags states where transacting strictly beats holding,
    ``target`` holds the node index of the rebalance target (the state's
    own node where no transaction happens).  ``model_hash`` names the
    model a policy read back from a dump was solved for.
    """

    grid: StateGrid
    impulse: np.ndarray
    target: np.ndarray
    beta: object  # float or the string "average"
    model_hash: Optional[str] = None

    def __post_init__(self):
        _require_shape(self.grid, impulse=self.impulse, target=self.target)

    @property
    def wealth_free(self) -> bool:
        return not self.grid.has_wealth_axis
