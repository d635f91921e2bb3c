"""MAP-anchored parallel SMC/MCMC posterior sampling for small neural-network
classifiers, with entropy-based uncertainty quantification and abstention."""

from .data import Dataset, load_csv_features, load_idx, make_ood
from .diagnostics import acf, iact
from .kernels import BankState, HmcConfig, PcnConfig, RowStreams, hmc_step, leapfrog, pcn_step, sweep
from .nets import (
    NetworkSpec,
    OptConfig,
    deep_ensemble,
    forward,
    log_likelihood_and_grad,
    map_estimate,
)
from .parallel import RunResult, pool, run_parallel, standard_error
from .smc import McmcConfig, SmcConfig, ess, next_lambda, run_mcmc, run_smc
from .targets import (
    GaussianPrior,
    TargetDensity,
    gaussian_loglik,
    make_anchored,
    make_cold,
)
from .uncertainty import (
    EntropyReport,
    MetaClassifier,
    PredictiveMatrix,
    abstain_2level,
    entropy_decomposition,
    features,
    metrics,
    predictive,
    threshold_metrics,
    train_meta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
