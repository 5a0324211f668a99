"""Fit the Gaussian copula synthesizer and draw synthetic rows.

The copula keeps each column's empirical marginal exactly and couples the
columns through a correlation matrix estimated on normal scores. Sampling
inverts that: correlated normals -> uniforms -> inverse marginals.
"""

from pathlib import Path

import numpy as np

from fairsynth import (
    DemoSpec,
    fit,
    load_model,
    make_demo_dataset,
    sample,
    save_model,
)

data = make_demo_dataset(DemoSpec(n_rows=2000, seed=0))

model = fit(data, "gaussian_copula", seed=0)

print(f"fitted on {model.fitted_rows} rows, columns: {', '.join(model.column_order)}")

# The score-space correlation matrix drives joint structure. The diagonal is
# exactly 1 and the matrix is repaired to positive semidefinite if needed.
print("\nestimated correlation (score space):")
names = model.column_order
width = max(len(n) for n in names)
for i, row in enumerate(model.correlation):
    cells = " ".join(f"{v:+.2f}" for v in row)
    print(f"  {names[i]:<{width}} {cells}")

synthetic = sample(model, 2000, seed=1)

# Marginals carry over: compare a numeric column's quartiles...
real_vals = np.sort(data.column("symptom_scale").values)
synth_vals = np.sort(synthetic.column("symptom_scale").values)
print("\nsymptom_scale quartiles (real vs synthetic):")
for q in (0.25, 0.5, 0.75):
    print(f"  q{int(q * 100)}: {np.quantile(real_vals, q):+.3f} vs {np.quantile(synth_vals, q):+.3f}")

# ...and a categorical column's frequencies.
print("\nRace frequencies (real vs synthetic):")
real_race = data.decoded("Race").tolist()
synth_race = synthetic.decoded("Race").tolist()
for cat in sorted(set(real_race)):
    print(f"  {cat:<10} {real_race.count(cat) / len(real_race):.3f} vs "
          f"{synth_race.count(cat) / len(synth_race):.3f}")

# Numeric cross-correlation survives the round trip through the copula.
def corr(ds, a, b):
    return float(np.corrcoef(ds.column(a).values, ds.column(b).values)[0, 1])

pair = ("symptom_scale", "functioning_score")
print(f"\ncorr({pair[0]}, {pair[1]}): real {corr(data, *pair):+.3f}, "
      f"synthetic {corr(synthetic, *pair):+.3f}")

# The 'independent' backend drops the coupling entirely; useful as a baseline.
indep = sample(fit(data, "independent", seed=0), 2000, seed=1)
print(f"independent baseline corr: {corr(indep, *pair):+.3f}")

# Models persist as JSON and round-trip exactly: same model, same samples.
out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)
model_path = out_dir / "copula_model.json"
save_model(model, model_path)
reloaded = load_model(model_path)
print(f"\nsaved and reloaded model agrees: {sample(reloaded, 50, seed=9) == sample(model, 50, seed=9)}")
