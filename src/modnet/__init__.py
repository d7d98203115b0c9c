"""Probabilistic modules with auxiliary-variable log-weights, module networks,
and single-site Metropolis-Hastings over them.

The pieces compose in layers. values and interface define the data that flows
between modules and the simulate/regenerate contract every module satisfies.
network wires modules into a DAG that stores one (log-weight, aux) pair per
node. mh runs valid MCMC over such a network using nothing but those stored
log-weights. smc and inverse supply the two nontrivial module families, one
backed by conditional sequential Monte Carlo and one by learned or exact
stochastic inverses. outlier_regression assembles the demo network the CLI
runs, oracle and outlier_oracle compute exact answers by enumeration for
checking everything else, and validation bundles the acceptance battery.
"""

from .experiment import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    posterior_rate,
    run_experiment,
)
from .interface import (
    DegenerateTraceError,
    ExactModule,
    ModnetError,
    ProbModule,
    SchemaError,
    bernoulli_module,
    check_log_weight,
    normal_module,
    table_module,
)
from .inverse import (
    DiscreteModelSpec,
    InverseModule,
    InverseNetwork,
    VariableSpec,
    exact_inverse,
    train_inverse,
)
from .mh import (
    ChainRecord,
    SiteProposal,
    UpdateInfo,
    discrete_uniform_proposal,
    flip_proposal,
    gaussian_walk_proposal,
    mh_update,
    run_chain,
)
from .network import (
    EdgeSpec,
    ModuleNetwork,
    NetworkBuildError,
    NodeSpec,
    UninitializedNodeError,
    build_network,
)
from .outlier_regression import build_outlier_network, generate_dataset
from .seeds import derive_seed
from .smc import (
    SequentialModel,
    SmcModule,
    smc_run,
)
from .traceio import (
    TraceAccumulator,
    TraceWriter,
    summary_document,
    write_summary,
)
from .values import Value, discrete, discrete_vector, real, real_vector

__version__ = "0.1.0"

__all__ = [
    "ChainRecord",
    "ConfigError",
    "DegenerateTraceError",
    "DiscreteModelSpec",
    "EdgeSpec",
    "ExactModule",
    "ExperimentConfig",
    "InverseModule",
    "InverseNetwork",
    "ModnetError",
    "ModuleNetwork",
    "NetworkBuildError",
    "NodeSpec",
    "ProbModule",
    "SchemaError",
    "SequentialModel",
    "SiteProposal",
    "SmcModule",
    "TraceAccumulator",
    "TraceWriter",
    "UninitializedNodeError",
    "UpdateInfo",
    "Value",
    "VariableSpec",
    "bernoulli_module",
    "build_network",
    "build_outlier_network",
    "check_log_weight",
    "derive_seed",
    "discrete",
    "discrete_uniform_proposal",
    "discrete_vector",
    "exact_inverse",
    "flip_proposal",
    "gaussian_walk_proposal",
    "generate_dataset",
    "load_config",
    "mh_update",
    "normal_module",
    "parse_config",
    "posterior_rate",
    "real",
    "real_vector",
    "run_chain",
    "run_experiment",
    "smc_run",
    "summary_document",
    "table_module",
    "train_inverse",
    "write_summary",
]
