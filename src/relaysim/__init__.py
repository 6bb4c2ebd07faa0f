"""Monte Carlo simulator and closed-form analytics for opportunistic
decode-wait-and-forward relay networks, with genie-aided baselines."""

from .analytics import (Prediction, baseline_fixed_prediction,
                        baseline_mobile_prediction, c_of, delta_of,
                        occupancy_alpha, odwf_fixed_prediction,
                        odwf_mobile_prediction, p_rd)
from .channel import coverage_radius, fixed_link
from .engine import (BASELINE, FIXED, MOBILE, ODWF, MetricsTrace, RunSummary,
                     SystemConfig, measure_delay, measure_throughput,
                     run_once, run_replicated)
from .experiment import (ExperimentSpec, SpecError, emit, load_spec,
                         parse_spec, run_experiment)
from .mobility import DiskGeometry, build_geometry
from .protocol import (BufferOverflowError, FrameOutcome, BaselineFixed,
                       BaselineMobile, OdwfFixed, OdwfMobile)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
