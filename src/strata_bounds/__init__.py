"""Sharp and smoothed treatment-effect bounds under selective observation.

Bounds for every principal stratum of potential selection behavior,
debiased cross-fitted estimators with three inference strategies around
the selection-indifference irregularity (trim, switch, smooth), and a
deterministic Monte Carlo harness for benchmarking them.
"""

__version__ = "0.1.0"

from .data_model import (BoundsEstimate, NuisanceBundle, ObservationTable,
                         Side, Stratum, StratumSpec, ValidationReport,
                         partition_labels, validate)
from .errors import (AllTrimmedError, DegenerateTrimError, EmptyCellError,
                     InfiniteMomentError, PartitionError, SeparationWarning,
                     StrataBoundsError, ZeroShareError)
from .estimation import (EstimationConfig, default_rho, estimate_sharp,
                         estimate_smooth, estimate_switch, estimate_trim,
                         im_critical_value, moment_rows, ratio_estimate,
                         smooth_ratio_estimate)
from .identification import (SupportBounds, conditional_sharp_bound,
                             stratum_weight, unconditional_sharp_bound)
from .influence import (InfluenceRows, SmoothInfluenceRows,
                        degenerate_at_moments, efficiency_bound,
                        efficiency_gap, eif_regular, eif_smooth)
from .nuisance import (CellOutcomeSurface, CellSpec, LearnerSpec, crossfit,
                       fold_assignments, load_external_nuisances)
from .simulation import (BenchmarkDesign, DgpConfig, EstimatorSpec,
                         ExperimentResult, OracleTarget, PANEL_SHARES,
                         dgp_sample, oracle_nuisances, oracle_support,
                         oracle_target, paper_roster, run_experiment,
                         write_metrics_csv, write_power_csv)
from .smoothing import (GFamily, approximation_error_curve,
                        smooth_conditional_bound, smooth_unconditional_bound)
