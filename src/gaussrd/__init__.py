"""Rate-distortion regions of two-layer, two-user Gaussian refinement.

The public surface re-exports the domain types and the main operations; see
the module docstrings for the underlying conventions (rates in nats,
distortions as mean squared error).

Each re-exported name is imported from its module on first access (PEP 562),
so ``import gaussrd`` loads no submodule and the scalar closed forms in
``model``, ``regions`` and ``analysis`` never pay for numpy, which
``channel``, ``discrete``, ``mmse`` and ``selfcheck`` load.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in (
    ("analysis", ("AsymptoticConfig", "ConvergenceRow", "FixedChannelConfig",
                  "FixedChannelLoss", "HighRateAsymptotes", "MdcrComparison",
                  "MdcrSplit", "SweepRow", "asymptote_convergence",
                  "fixed_channel_loss", "high_rate_asymptote", "mdcr_compare",
                  "wz_md_sweep", "wz_region")),
    ("channel", ("CertificationRecord", "DegenerateAdjustment", "TestChannel",
                 "certify_achievability")),
    ("discrete", ("DecoderMaps", "JointPmf", "RateRegionBounds",
                  "eval_distortions", "eval_region_bounds",
                  "load_configuration", "random_pmf", "timeshare")),
    ("errors", ("AlphabetMismatch", "DimensionMismatch", "GaussRdError",
                "InfeasibleDistortion", "InvalidChannel", "InvalidPmf",
                "InvalidRegimeInput", "NegativeDelta", "OutOfRegime",
                "SingularObservation")),
    ("mmse", ("CovarianceMatrix", "MmseResult", "assemble_msr_covariance",
              "conditional_mmse", "mc_estimate_mse")),
    ("model", ("UNCONSTRAINED", "DistortionTuple", "GaussianSource",
               "RateTuple", "RateUnit", "Regime", "Unconstrained",
               "convert_rate", "feasible_individual")),
    ("regions", ("ConverseWitness", "DrBoundResult", "EquivalenceReport",
                 "GridSpec", "RdBoundResult", "converse_witness",
                 "default_grid", "dr_bound", "equivalence_scan",
                 "maximize_t_numeric", "rd_bound", "t_of_epsilon")),
) for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # An unknown name must raise AttributeError: ``from gaussrd import
    # channel`` relies on it to fall through to the submodule import.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
