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

import bisect
import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

# most nodes a mesh may have: ``simplex_mesh`` lists them in Python, and
# the DP tables hold n_nodes ** 2 rebalance entries per wealth column and
# factor, so every mesh that can be solved lies far below it
MAX_NODES = 1 << 20


def check_settings(**settings) -> None:
    """Refuse the grid settings passed that the pipeline cannot run, with a
    ValueError naming the key and its value: ``n_assets``, ``mesh_order``,
    ``n_z`` and ``n_x`` must be integers >= 1 (a bool is not one), and
    ``x_min`` and ``x_max`` finite floats with 0 < x_min < x_max (an
    integer too large for a float is not one).  The lattice keys of the
    mesh, base mesh_order + 1 with n_assets digits (one if not passed),
    must fit in int64, and its node count, C(mesh_order + n_assets - 1,
    n_assets - 1), computed and never enumerated, must be at most
    ``MAX_NODES``."""
    for key, val in settings.items():
        finite = key in ("x_min", "x_max")
        if isinstance(val, bool) or not (
                isinstance(val, numbers.Real) and _finite_float(val) if finite
                else isinstance(val, numbers.Integral) and val >= 1):
            what = "a finite number" if finite else "an integer >= 1"
            got = repr(val)
            if (finite and isinstance(val, numbers.Integral)
                    and not isinstance(val, bool)):
                got = "an integer too large for a float"
            raise ValueError(f"{key} must be {what}, got {got}")
    x_min, x_max = settings.get("x_min"), settings.get("x_max")
    if x_min is not None and not 0 < x_min < x_max:
        raise ValueError(f"need 0 < x_min < x_max, got x_min={x_min!r}, "
                         f"x_max={x_max!r}")
    m, n = settings.get("mesh_order"), settings.get("n_assets", 1)
    if m is None:
        return
    base, digits = int(m) + 1, int(n)
    # 2 ** floor(log2(base)) <= base, so a power past 63 bits overflows
    if ((base.bit_length() - 1) * digits >= 63
            or base ** digits > np.iinfo(np.int64).max):
        raise ValueError(f"mesh_order {m!r} is too large: lattice keys "
                         f"(mesh_order + 1) ** n_assets with n_assets={n!r} "
                         "overflow int64")
    n_nodes = math.comb(base + digits - 2, digits - 1)
    if n_nodes > MAX_NODES:
        raise ValueError(f"mesh_order {m!r} is too large: the mesh of "
                         f"n_assets={n!r} would have {n_nodes} nodes, above "
                         f"{MAX_NODES}")


def _finite_float(val) -> bool:
    """Whether the real number ``val`` is a finite float; an integer too
    large for a float is not."""
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex_mesh(n_assets: int, order: int) -> np.ndarray:
    """All proportion vectors with coordinates k/order, lexicographic order;
    ``n_assets`` and ``order`` as ``check_settings`` accepts them."""
    check_settings(n_assets=n_assets, mesh_order=order)
    combos = np.array(list(_compositions(order, n_assets)), dtype=float)
    return combos / order


@dataclass
class StateGrid:
    """Discretized (proportion, wealth, factor) state space.

    Made by ``build``, which refuses settings that the pipeline cannot run.
    ``wealth`` is None for the proportional-cost problem, whose value
    functions carry no wealth axis.  The nodes must be in ascending key
    order, as ``simplex_mesh`` lists them: a node's index is the rank of
    its key.
    """

    nodes: np.ndarray
    mesh_order: int
    n_z: int
    wealth: Optional[np.ndarray] = None
    _keys: np.ndarray = field(init=False, repr=False)
    _key_sum: np.ndarray = field(init=False, repr=False)
    # the keys and their radix as Python ints, for one-row lookups, and the
    # flat-index step of a node in tables of ``shape``
    _key_list: list = field(init=False, repr=False)
    _radix: list = field(init=False, repr=False)
    _stride: int = field(init=False, repr=False)
    _lx0: Optional[float] = field(init=False, repr=False, default=None)
    _dlx: Optional[float] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.wealth is not None:
            self.wealth = np.asarray(self.wealth, dtype=float)
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
        self._keys = ints @ radix
        if np.any(self._keys[1:] <= self._keys[:-1]):
            raise ValueError("grid nodes must ascend in lexicographic order")
        self._key_list, self._radix = self._keys.tolist(), radix.tolist()
        self._stride = math.prod(self.shape[1:])

    @classmethod
    def build(cls, n_assets: int, mesh_order: int, n_z: int,
              x_min: Optional[float] = None, x_max: Optional[float] = None,
              n_x: Optional[int] = None) -> "StateGrid":
        """The grid of these settings, the one owner of their validity: it
        refuses what ``check_settings`` refuses, a wealth key given without
        the others, and wealth nodes that do not ascend.  The wealth axis,
        if any, has ``n_x`` geometric nodes from ``x_min`` to ``x_max``."""
        wealth = {"x_min": x_min, "x_max": x_max, "n_x": n_x}
        if all(v is None for v in wealth.values()):
            wealth = {}
        check_settings(n_assets=n_assets, mesh_order=mesh_order, n_z=n_z,
                       **wealth)
        axis = np.geomspace(x_min, x_max, n_x) if wealth else None
        if wealth and np.any(axis[1:] <= axis[:-1]):
            raise ValueError(f"x_min={x_min!r} and x_max={x_max!r} are too "
                             f"close for n_x={n_x!r} strictly increasing "
                             "wealth nodes")
        return cls(nodes=simplex_mesh(n_assets, mesh_order),
                   mesh_order=mesh_order, n_z=n_z, wealth=axis)

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
        lowest coordinate index, making lookups deterministic.  A batch
        with a row that ``node_index`` refuses, of another length or with
        a product that is NaN or infinite, is refused as it refuses it.
        """
        pi = np.atleast_2d(np.asarray(pi, dtype=float))
        y = pi * self.mesh_order
        d = len(self._radix)
        # one count finds a NaN or an infinity, before the cast warns on it
        if pi.shape[1:] != (d,) or np.count_nonzero(np.isfinite(y)) != y.size:
            bad = pi if pi.shape[1:] != (d,) else pi[
                ~np.isfinite(y).all(axis=1)][0]
            raise ValueError(f"need a row of {d} finite proportions, got "
                             f"{bad.tolist()!r}")
        key_sum = np.rint(y).astype(np.int64) @ self._key_sum
        idx = self._keys.searchsorted(key_sum[:, 0])
        # a row whose rounding overshoots takes the one-row rule's node
        for row in np.nonzero(key_sum[:, 1] != self.mesh_order)[0]:
            idx[row] = self.node_index(pi[row])
        return idx

    def node_index(self, pi) -> int:
        """Index of the mesh node nearest to one proportion row ``pi``,
        ``nearest_node([pi])[0]`` bit for bit, in Python numbers.

        The same rule as ``nearest_node``: the products ``p * m`` round half
        to even, as ``round`` and ``np.rint`` do; the surplus is repaid in
        the stable order of the residuals ``k - y``; and the key is found by
        ``bisect_left`` in the sorted key list, as ``searchsorted`` finds
        it.  A row that is not ``n_assets`` long, or with a product that is
        NaN or infinite, is refused with a ValueError.
        """
        m = self.mesh_order
        y = [float(p) * m for p in pi]
        if len(y) != len(self._radix) or not all(map(math.isfinite, y)):
            raise ValueError(f"need a row of {len(self._radix)} finite "
                             f"proportions, got {pi!r}")
        k = [round(v) for v in y]
        surplus = sum(k) - m
        if surplus:
            step = 1 if surplus > 0 else -1
            resid = [a - b for a, b in zip(k, y)]
            # argsort(-resid) to repay a surplus, argsort(resid) a deficit
            order = sorted(range(len(k)), key=lambda i: -step * resid[i])
            for i in order[:abs(surplus)]:
                k[i] -= step
        key = sum(map(operator.mul, k, self._radix))
        return bisect.bisect_left(self._key_list, key)

    def state_index(self, pi, x, z) -> int:
        """Flat index, in the order of ``shape``, of the grid state nearest
        to one state: proportions ``pi`` (a row, as ``node_index`` takes
        it), wealth ``x`` and factor ``z``.  The wealth node comes from
        ``nearest_wealth``, on grids with a wealth axis only; ``x`` is not
        read on others.  A node or factor outside the grid is refused with
        a ValueError.
        """
        node, z = self.node_index(pi), int(z)
        if not (0 <= node < len(self._key_list) and 0 <= z < self.n_z):
            raise ValueError(f"proportions {pi!r} and factor {z} name no "
                             "state of the grid")
        i = node * self._stride + z
        if self.wealth is not None:
            i += int(self.nearest_wealth(x)) * self.n_z
        return i

    def wealth_pos(self, x):
        """Lower index and interpolation weight for wealth values ``x``.

        Positions are computed linearly in log-wealth and clamped to the
        grid range, so an infinite wealth reads the top node; a NaN wealth
        is refused with a ValueError.
        """
        if self.wealth is None:
            raise ValueError("grid has no wealth axis")
        x = np.asarray(x, dtype=float)
        # one count, before the cast below would warn on a NaN position
        nan = np.count_nonzero(np.isnan(x))
        if nan:
            raise ValueError(f"wealth must not be NaN: {nan} of {x.size} "
                             "wealth values are NaN")
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
