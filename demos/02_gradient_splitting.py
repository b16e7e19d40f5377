"""Why splitting exposes colluders that whole-vector distances miss.

Honest heterogeneity under non-IID data is structured: each client deviates
strongly on its own small set of coordinates (its local classes). Colluders
instead hide a small offset in every coordinate. Whole-vector L2 scoring
(p=1) ranks a few sparse-but-large honest deviations above the dense-but-
small colluders, so colluders slip into the kept set. Splitting into more
groups re-weights the comparison: the colluders' offset shows up in every
group while an honest client's deviation is concentrated in a few, so the
summed identification scores pull them apart.

A Byzantine client may also send an arbitrary finite value. The last part
replaces one colluder with an upload of 1e160, whose squares alone pass the
float range: the defense scales such uploads down by a power of two before
scoring, so even a mean base ranks the huge upload last and drops it.
Run with: python demos/02_gradient_splitting.py
"""

import numpy as np

from gasfl.aggregators import AggregatorSpec
from gasfl.attacks import AttackContext, AttackSpec, craft
from gasfl.core import SeedSpec
from gasfl.gas import GasConfig, KnownF, gas_aggregate

rng = np.random.default_rng(7)
n, f, d = 50, 10, 1024

# shared signal + sparse per-client heterogeneity with heavy-tailed magnitude
base = rng.standard_normal(d)
honest = np.tile(base, (n - f, 1)) + rng.standard_normal((n - f, d)) * 0.1
for i in range(n - f):
    idx = rng.choice(d, size=d // 20, replace=False)
    honest[i, idx] += rng.standard_normal(d // 20) * rng.lognormal(np.log(2.5), 0.7)

crafted = craft(AttackSpec("lie", z=1.5), AttackContext(honest, f), SeedSpec(1))
uploads = np.vstack([honest, crafted])
byz = np.arange(n) >= n - f
honest_mean = honest.mean(axis=0)

print(f"{n - f} honest (sparse heterogeneity) + {f} colluders (dense offset), d={d}\n")
print(f"{'groups':>6s} {'colluders excluded':>19s} {'deviation from honest mean':>27s}")
for p in [1, 4, 16, 64, 256]:
    cfg = GasConfig(p=p, base=AggregatorSpec("median"), selection=KnownF(f), seed=SeedSpec(2))
    agg, table, sel, _ = gas_aggregate(cfg, uploads)
    caught = f - int(byz[sel.selected].sum())
    deviation = np.linalg.norm(agg - honest_mean)
    print(f"{p:6d} {caught:13d} / {f}{deviation:24.3f}")

print("\np=1 is a whole-vector distance filter: half the colluders survive it.")
print("More groups expose the dense offset, and the kept-set average tracks")
print("the honest mean more closely round over round.")

huge = uploads.copy()
huge[-1] = 1e160
print("\nOne colluder uploads 1e160 in every coordinate:")
for kind in ("mean", "geometric_median"):
    cfg = GasConfig(p=16, base=AggregatorSpec(kind), selection=KnownF(f), seed=SeedSpec(2))
    agg, table, sel, _ = gas_aggregate(cfg, huge)
    kept = "kept" if n - 1 in sel.selected else "dropped"
    print(f"  gas({kind}): the 1e160 upload is {kept}, "
          f"aggregate norm {np.linalg.norm(agg):.3g}")
    assert kept == "dropped" and np.isfinite(agg).all()
