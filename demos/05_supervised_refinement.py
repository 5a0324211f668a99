"""Run the bounded refinement loop and watch the policy act.

The supervisor runs the generate-then-evaluate pipeline up to
max_refinements + 1 times. A parity failure walks a fixed action order
(balance the training groups, shrink the correlation, reseed); a pure quality
shortfall reseeds (or, for external backends, doubles epochs). The best
iteration by composite score wins, ties going to the earliest.
"""

from pathlib import Path

from fairsynth import (
    DemoSpec,
    RunConfig,
    SplitSpec,
    Targets,
    demo_metadata,
    make_demo_dataset,
    summary_doc,
    supervise,
    write_reports,
)
from fairsynth.reports import render_json

data = make_demo_dataset(DemoSpec(n_rows=2000, seed=0, disparity_strength=0.3))
metadata = demo_metadata()

config = RunConfig(backend="gaussian_copula", train_rows=1000, sample_rows=500, seed=0)
targets = Targets(min_synth_score=0.7, parity_threshold=2.0, max_refinements=3)

result = supervise(config, data, metadata, SplitSpec(1000, 0.3, 0), targets)

print(f"stop reason: {result.stop_reason}")
print(f"iterations run: {len(result.history)} (budget allows {targets.max_refinements + 1})")
print(f"best iteration: {result.best_iteration}\n")

print(f"{'it':>2}  {'synth_score':>11}  {'quality':>8}  {'ratio':>9}  action")
for i, entry in enumerate(result.history):
    if entry.composite is None:
        print(f"{i:>2}  {'error':>11}  {'-':>8}  {'-':>9}  {entry.action_taken or ''}  ({entry.error})")
        continue
    c = entry.composite
    ratio = "undefined" if c.max_rel_fpr is None else (
        "inf" if c.max_rel_fpr == float("inf") else f"{c.max_rel_fpr:.3f}")
    marker = " <- best" if i == result.best_iteration else ""
    print(f"{i:>2}  {c.synth_score:>11.4f}  {c.quality:>8.4f}  {ratio:>9}  "
          f"{entry.action_taken or '(stop)'}{marker}")

best = result.best_config
print(f"\nwinning config: seed {best.seed}, shrinkage {best.correlation_shrinkage}, "
      f"balance_groups {best.balance_groups}"
      + (f" on {best.balance_attribute}" if best.balance_attribute else ""))

# The standard artifact set: two report JSONs, the run summary, and the
# synthetic CSV. Re-running this script reproduces every byte.
out_dir = Path(__file__).parent / "out" / "supervised"
write_reports(
    result.best_quality,
    result.best_fairness,
    result.best_composite,
    result.best_synthetic,
    out_dir,
    summary=summary_doc(result),
)
print(f"\nwrote reports to {out_dir}")
print("run summary head:")
print("\n".join(render_json(summary_doc(result)).splitlines()[:6]))
