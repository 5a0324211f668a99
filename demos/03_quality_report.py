"""Score synthetic data fidelity against a held-out slice of the real table.

The report has two halves: column shapes (KS complement for numeric columns,
TV complement for categorical ones) and column pair trends (correlation
similarity for numeric pairs, contingency similarity otherwise, with numeric
columns quartile-binned on the real data's edges). The overall score is the
mean of the two halves.
"""

from fairsynth import (
    DemoSpec,
    SplitSpec,
    fit,
    make_demo_dataset,
    quality_report,
    real_side,
    sample,
    split_holdout,
)

data = make_demo_dataset(DemoSpec(n_rows=2000, seed=0))
train, holdout = split_holdout(data, SplitSpec(train_rows=1000, holdout_fraction=0.3, seed=0))
print(f"train {train.row_count} rows, holdout {holdout.row_count} rows")

model = fit(train, seed=0)
synthetic = sample(model, 500, seed=0)

# The holdout's side of the report (bin edges, codes, numeric-pair rho) is
# built once and scores every synthetic table below.
side = real_side(holdout)
report = quality_report(side, synthetic)

print(f"\noverall score: {report.overall_score:.4f}")
print(f"column shapes average: {report.shapes_average:.4f}")
for name, (metric, score) in report.shapes.items():
    print(f"  {name:<18} {metric:<22} {score:.4f}")

print(f"column pair trends average: {report.trends_average:.4f}")
for a, b, metric, score in report.pair_trends:
    print(f"  {a} x {b:<18} {metric:<22} {score:.4f}")

# Sanity anchor: comparing the holdout to itself scores a perfect 1.0.
self_report = quality_report(side, holdout)
print(f"\nself-comparison score: {self_report.overall_score:.12f}")

# A deliberately bad synthesizer (independent columns) loses points on the
# pair trends while keeping the shape half high.
indep = sample(fit(train, "independent", seed=0), 500, seed=0)
indep_report = quality_report(side, indep)
print(f"independent baseline: shapes {indep_report.shapes_average:.4f}, "
      f"trends {indep_report.trends_average:.4f}, overall {indep_report.overall_score:.4f}")
