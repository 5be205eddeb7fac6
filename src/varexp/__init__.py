"""varexp: simulation and analysis toolkit for the state-dependent
variable-exponent diffusion dX = mu X dt + sigma X^p(X) dW."""

__version__ = "0.1.0"

from types import ModuleType as _Module

from .analysis import (ErrorReport, TerminalStats, loglog_slope,
                       refinement_errors, strong_error,
                       strong_error_from_stats, sup_second_moment,
                       terminal_stats)
from .bounds import (BoundInputs, BoundTable, bound_table, coefficient,
                     error_bound, lambda_factor, moment_bound)
from .engine import (BlowUpError, PathBatch, SimConfig, increment_matrix,
                     run_with_increments, simulate_batch, simulate_coupled,
                     simulate_coupled_stats)
from .exponent import (CheckReport, ExponentSpec, GrowthConstants,
                       check_admissibility, estimate_constants, eval_dphi,
                       eval_phi, sup_deviation)
from .models import ModelSpec, cev, gbm
from .pricing import (ImpliedVolError, SmilePoint, SmileRequest, bs_call,
                      bs_vega, coupled_smile, implied_vol, mc_call_price,
                      smile_from_terminal)

__all__ = [name for name, value in sorted(globals().items())  # not the submodules
           if not name.startswith("_") and not isinstance(value, _Module)]
