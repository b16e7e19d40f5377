"""Byzantine-robust federated learning with split-gradient scoring.

The package provides six classic robust aggregation rules, a split-gradient
meta-defense that scores clients per coordinate group before averaging the
trustworthy ones, an omniscient model-poisoning attack suite, and a
deterministic desk-scale federated simulation harness.
"""

from .aggregators import (AggregatorSpec, ResilienceReport, aggregate, aggregate_with_selection,
                          bucketing_wrap, estimate_resilience)
from .attacks import AttackContext, AttackSpec, craft
from .core import IndexPartition, SeedSpec, make_partition
from .data import (ClientShards, DirichletPartition, SyntheticDataset, SyntheticGradientModel,
                   dirichlet_partition, generate_synthetic)
from .gas import GasConfig, KnownF, ScoreTable, SelectionResult, gas_aggregate
from .models import Model
from .simulation import (BucketedDefense, DataConfig, ExperimentConfig, GasDefense,
                         PlainDefense, RoundRecord, StepRecord, TrainerConfig, local_train,
                         run_experiment, run_round, run_single, server_step)

__version__ = "0.1.0"
