"""varexp: simulation and analysis toolkit for the state-dependent
variable-exponent diffusion dX = mu X dt + sigma X^p(X) dW."""

__version__ = "0.1.0"

from .analysis import (ErrorReport, TerminalStats, diffusion_range,
                       loglog_slope, refinement_errors, strong_error,
                       strong_error_from_stats, sup_second_moment,
                       terminal_stats)
from .bounds import (BoundInputs, BoundTable, bound_table, coefficient,
                     error_bound, lambda_factor, moment_bound)
from .engine import (BlowUpError, PathBatch, SimConfig, gen_increments,
                     increment_matrix, run_with_increments, simulate_batch,
                     simulate_coupled, simulate_coupled_stats,
                     simulate_coupled_terminals, step_euler,
                     step_log_milstein, step_milstein)
from .exponent import (CheckReport, ExponentSpec, GrowthConstants,
                       check_admissibility, estimate_constants, eval_dp,
                       eval_dphi, eval_p, eval_phi, sup_deviation)
from .models import ModelSpec, cev, diffusion, diffusion_deriv, drift, gbm
from .pricing import (ImpliedVolError, SmilePoint, SmileRequest, bs_call,
                      bs_vega, coupled_smile, implied_vol, mc_call_price,
                      smile, smile_from_terminal)

__all__ = [name for name in dir() if not name.startswith("_")]
