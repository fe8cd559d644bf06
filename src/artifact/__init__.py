"""Workbench for quantum-vs-classical similarity testing on barcode pairs.

Generates correlated/uncorrelated binary-barcode-pair datasets, simulates
phase-state encodings exactly, trains a measurement-adaptive quantum model
(sparse linear readout over an equivariant observable pool), a variational
equivariant quantum model, and from-scratch Siamese neural-network
baselines, and emits reproducible experiment tables as CSV.
"""

from .classical import CnnSpec, MlpSpec, SiameseModel, cnn_spec_for, train_siamese
from .dataset import (
    Dataset,
    SamplePair,
    default_epsilon,
    generate_dataset,
    load_dataset,
    sample_pair,
    save_dataset,
    stack_pairs,
)
from .harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    derive_seed,
    emit_csv,
    load_config,
    make_config,
    read_csv,
    run_experiment,
    run_oracle_check,
    summarize,
    validate_pool_report,
)
from .qnn_meas import (
    LassoModel,
    extract_feature_matrix,
    lasso_fit,
    lasso_scores,
)
from .qnn_var import AnsatzSpec, QnnUResult, train_qnn_u
from .statevec import (
    expectation,
    forrelation,
    fwht,
    phase_state,
    product_state,
)
from .symmetry import OperatorPool, build_pool, check_invariance_conditions

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "CSV_HEADER",
    "CnnSpec",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "LassoModel",
    "MlpSpec",
    "OperatorPool",
    "QnnUResult",
    "RunRecord",
    "SamplePair",
    "SiameseModel",
    "build_pool",
    "check_invariance_conditions",
    "cnn_spec_for",
    "default_epsilon",
    "derive_seed",
    "emit_csv",
    "expectation",
    "extract_feature_matrix",
    "forrelation",
    "fwht",
    "generate_dataset",
    "lasso_fit",
    "lasso_scores",
    "load_config",
    "load_dataset",
    "make_config",
    "phase_state",
    "product_state",
    "read_csv",
    "run_experiment",
    "run_oracle_check",
    "sample_pair",
    "save_dataset",
    "stack_pairs",
    "summarize",
    "train_qnn_u",
    "train_siamese",
    "validate_pool_report",
]
