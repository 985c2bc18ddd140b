"""Rate-distortion regions of two-layer, two-user Gaussian refinement.

The public surface re-exports the domain types and the main operations; see
the module docstrings for the underlying conventions (rates in nats,
distortions as mean squared error).
"""

from .analysis import (AsymptoticConfig, ConvergenceRow, FixedChannelConfig,
                       FixedChannelLoss, HighRateAsymptotes, MdcrComparison,
                       MdcrSplit, SweepRow, WzChannel, asymptote_convergence,
                       fixed_channel_loss, high_rate_asymptote, md_region_slice,
                       mdcr_compare, wz_channel_from_rates, wz_md_sweep,
                       wz_region)
from .channel import (CertificationRecord, DegenerateAdjustment, TestChannel,
                      certify_achievability, construct_channel,
                      degenerate_adjust)
from .discrete import (DecoderMaps, JointPmf, RateRegionBounds,
                       eval_distortions, eval_region_bounds,
                       load_configuration, random_pmf, timeshare)
from .errors import (AlphabetMismatch, DimensionMismatch, GaussRdError,
                     InfeasibleDistortion, InvalidChannel, InvalidPmf,
                     InvalidRegimeInput, NegativeDelta, OutOfRegime,
                     SingularObservation)
from .mmse import (CovarianceMatrix, MmseResult, assemble_msr_covariance,
                   conditional_mmse, mc_estimate_mse)
from .model import (UNCONSTRAINED, DistortionTuple, GaussianSource, RateTuple,
                    RateUnit, Regime, Unconstrained, convert_rate,
                    feasible_individual)
from .regions import (ConverseWitness, DrBoundResult, EquivalenceReport,
                      GridSpec, RdBoundResult, converse_witness, default_grid,
                      dr_bound, equivalence_scan, maximize_t_numeric,
                      rd_bound, t_of_epsilon)

__version__ = "0.1.0"
