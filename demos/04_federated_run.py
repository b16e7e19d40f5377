"""End-to-end federated run: poisoned training with and without the defense.

Trains the desk-scale softmax task (50 clients, 10 colluding, non-IID
shards) for 60 rounds under the little-is-enough attack, with four servers:
undefended averaging, coordinate median, and split-gradient scoring over the
median, once knowing f and once with f unknown, dropping ceil(0.3 * n)
clients per round. Prints a round table and the final comparison.
Run with: python demos/04_federated_run.py  (a few seconds)
"""

import numpy as np

from gasfl.aggregators import AggregatorSpec
from gasfl.attacks import AttackSpec
from gasfl.core import SeedSpec
from gasfl.simulation import ExperimentConfig, GasDefense, PlainDefense, run_single

ROUNDS = 60
defenses = {
    "mean": PlainDefense(AggregatorSpec("mean")),
    "median": PlainDefense(AggregatorSpec("median")),
    "gas(median)": GasDefense(AggregatorSpec("median"), p=650),
    "gas, δ=0.3": GasDefense(AggregatorSpec("median"), p=650, delta=0.3),
}

histories = {}
for name, defense in defenses.items():
    cfg = ExperimentConfig(n_clients=50, n_byzantine=10, rounds=ROUNDS, repeats=1,
                           master_seed=123, attack=AttackSpec("lie"), defense=defense)
    histories[name] = run_single(cfg, SeedSpec(123).child("repeat", 0))

print(f"{'round':>5s} " + " ".join(f"{name:>12s}" for name in histories))
for t in range(0, ROUNDS, 6):
    cells = " ".join(f"{histories[name][t].test_accuracy:12.3f}" for name in histories)
    print(f"{t:5d} {cells}")

print("\nfinal round metrics:")
for name, rows in histories.items():
    last = rows[-1]
    mean_dev = np.mean([r.deviation for r in rows])
    mean_byz = np.mean([r.byz_inclusion_count for r in rows])
    mean_kept = np.mean([r.honest_inclusion_ratio for r in rows])
    print(f"  {name:12s} accuracy={last.test_accuracy:.3f}  "
          f"mean deviation={mean_dev:.3f}  mean colluders aggregated={mean_byz:.1f}/10  "
          f"honest kept={mean_kept:.1%}")
