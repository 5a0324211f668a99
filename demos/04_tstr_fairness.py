"""Train-on-synthetic, test-on-real fairness evaluation.

A logistic regression is trained on the synthetic rows and evaluated on the
real holdout. The fairness question is whether its false positive rate is
spread evenly across protected groups: max_rel_fpr is the largest max/min FPR
ratio over any protected attribute, and the composite synth_score multiplies
fidelity by a penalty when that ratio exceeds the parity threshold.
"""

from fairsynth import (
    DemoSpec,
    SplitSpec,
    demo_metadata,
    fairness_report,
    fit,
    make_demo_dataset,
    quality_report,
    real_side,
    sample,
    split_holdout,
    synth_score,
)

data = make_demo_dataset(DemoSpec(n_rows=2000, seed=0, disparity_strength=0.3))
metadata = demo_metadata()
train, holdout = split_holdout(data, SplitSpec(train_rows=1000, holdout_fraction=0.3, seed=0))

model = fit(train, seed=0)
synthetic = sample(model, 500, seed=0)

report = fairness_report(synthetic, holdout, metadata)

print(f"classifier degenerate (one prediction for everyone): {report.degenerate}")
print(f"decision threshold: {report.threshold}")

for attr, entry in report.by_attribute.items():
    print(f"\n{attr}:")
    for group, fpr in entry.fpr.items():
        negatives, false_positives = entry.counts[group]
        shown = "undefined" if fpr is None else f"{fpr:.3f}"
        print(f"  {group:<10} FPR {shown:<10} ({false_positives}/{negatives} false positives)")
    ratio = entry.max_rel_fpr
    print(f"  max_rel_fpr: {'undefined' if ratio is None else ratio}")

ratio = report.max_rel_fpr
print(f"\noverall max_rel_fpr: {'undefined' if ratio is None else ratio}")
if report.excluded_groups:
    for attr, group, reason in report.excluded_groups:
        print(f"excluded {attr}={group}: {reason}")

# Fold fidelity and fairness into the single supervisor signal.
quality = quality_report(real_side(holdout), synthetic)
composite = synth_score(quality.overall_score, report.max_rel_fpr, degenerate=report.degenerate)
print(f"\nquality {composite.quality:.4f} x fairness_mult {composite.fairness_mult:.4f} "
      f"= synth_score {composite.synth_score:.4f}")
print(f"parity_ok: {composite.parity_ok}")
