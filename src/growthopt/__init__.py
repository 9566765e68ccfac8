"""Growth-optimal portfolio selection on finite Markov-modulated markets
with fixed plus proportional transaction costs.

Subpackages by concern:

- :mod:`growthopt.market`   factor chain, shocks, ergodic invariants,
                            path walk and large-deviations tail
- :mod:`growthopt.costs`    transaction cost solver and derived constants
- :mod:`growthopt.grid`     simplex / wealth discretization
- :mod:`growthopt.dp`       discounted impulse dynamic programming
- :mod:`growthopt.average`  vanishing-discount average-growth extraction
- :mod:`growthopt.simulate` strategies and seeded Monte Carlo engine
- :mod:`growthopt.pathcheck` wealth-floor and share-space checks of a path
- :mod:`growthopt.cli`      batch front door
"""

__version__ = "0.1.0"

from .average import (MimickingPolicy, VanishingDiscountReport,
                      bellman_residual, build_mimicking, vanishing_discount)
from .costs import (CostConstants, CostSpec, bisect_e, cost_constants,
                    general_cost_check, min_diminution, min_trade_wealth,
                    proportional_cost, share_cost, solve_e, solve_e_batch)
from .dp import (bellman_step, build_tables, solve_discounted, span_bound,
                 span_seminorm)
from .grid import Policy, StateGrid, ValueFunction, simplex_mesh
from .market import (MarketModel, dobrushin, expected_log_return,
                     growth_floor, invariant_measure, ld_tail, mixing_step,
                     sample_factor_paths)
from .modelio import (bundled_model_path, load_model, model_fingerprint,
                      parse_model_dict)
from .pathcheck import to_share_holdings, wealth_floor_check
from .rng import make_rng
from .simulate import (FixedTargetStrategy, GridPolicyStrategy, GrowthEstimate,
                       MimickingStrategy, NoTransactionStrategy, Strategy,
                       Trajectory, average_growth, run)
