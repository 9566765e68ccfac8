"""Growth-optimal portfolio selection on finite Markov-modulated markets
with fixed plus proportional transaction costs.

Subpackages by concern:

- :mod:`growthopt.market`   factor chain, shocks, ergodic invariants
- :mod:`growthopt.costs`    transaction cost solver and derived constants
- :mod:`growthopt.grid`     simplex / wealth discretization
- :mod:`growthopt.dp`       discounted impulse dynamic programming
- :mod:`growthopt.average`  vanishing-discount average-growth extraction
- :mod:`growthopt.simulate` seeded Monte Carlo engine and path checks
- :mod:`growthopt.cli`      batch front door
"""

__version__ = "0.1.0"

from .average import (MimickingPolicy, VanishingDiscountReport,
                      bellman_residual, build_mimicking, cross_check_costs,
                      vanishing_discount)
from .costs import (CostConstants, CostSpec, bisect_e, cost_constants,
                    general_cost_check, min_diminution, min_trade_wealth,
                    proportional_cost, share_cost, solve_e, solve_e_batch)
from .dp import (bellman_step, build_tables, solve_discounted, span_bound,
                 span_seminorm)
from .grid import Policy, StateGrid, ValueFunction, simplex_mesh
from .market import (MarketModel, dobrushin, expected_log_return,
                     growth_floor, invariant_measure, mixing_step,
                     sample_factor_paths)
from .modelio import bundled_model_path, load_model, parse_model_dict
from .rng import make_rng
from .simulate import (FixedTargetStrategy, GridPolicyStrategy, GrowthEstimate,
                       MimickingStrategy, NoTransactionStrategy, Strategy,
                       Trajectory, average_growth, ld_tail, model_fingerprint,
                       run, to_share_holdings, wealth_floor_check)
