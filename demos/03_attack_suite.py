"""What each omniscient attack actually sends.

Shows the crafted vectors' geometry relative to the honest gradients they
were derived from: norms, distance from the honest mean, and whether they
respect the distance envelopes the search-based attacks promise.
Run with: python demos/03_attack_suite.py
"""

import numpy as np

from gasfl.attacks import AttackContext, AttackSpec, craft
from gasfl.core import SeedSpec

rng = np.random.default_rng(3)
n_honest, f, d = 12, 3, 16
honest = rng.standard_normal((n_honest, d)) * 1.5 + 0.5
own = rng.standard_normal((f, d)) * 1.5 + 0.5
mu = honest.mean(axis=0)

diff = honest[:, None, :] - honest[None, :, :]
max_pair = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max())
print(f"honest: n={n_honest}, ||mean||={np.linalg.norm(mu):.3f}, "
      f"max pairwise distance={max_pair:.3f}\n")

print(f"{'attack':11s} {'||vector||':>10s} {'dist to mean':>13s}  note")
for kind in ["none", "bit_flip", "lie", "min_max", "min_sum", "ipm"]:
    ctx = AttackContext(honest, f, byz_true_gradients=own)
    out = craft(AttackSpec(kind), ctx, SeedSpec(4))
    vec = out[0]
    note = {
        "none": "byzantine clients' own true gradients",
        "bit_flip": "own gradient, sign-flipped",
        "lie": "mean + 1.5 * per-coordinate std",
        "min_max": "farthest point within the max-pairwise envelope",
        "min_sum": "farthest point within the sum-of-squares envelope",
        "ipm": "-0.5 * honest mean (flips the update direction)",
    }[kind]
    print(f"{kind:11s} {np.linalg.norm(vec):10.3f} {np.linalg.norm(vec - mu):13.3f}  {note}")

mm = craft(AttackSpec("min_max"), AttackContext(honest, f), SeedSpec(4))[0]
print(f"\nmin_max envelope check: max_i ||v - g_i|| = "
      f"{np.linalg.norm(honest - mm, axis=1).max():.6f} <= {max_pair:.6f}")
