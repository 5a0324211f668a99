"""Fairness-aware synthetic tabular data engine.

Fit copula-based synthesizers to real tables, sample synthetic rows, score
them for distributional fidelity and train-on-synthetic/test-on-real group
fairness, combine both into a single composite score, and drive a bounded
refinement loop until quality and parity targets are met.

The top level re-exports the entry points below; everything else is imported
from its module (``fairsynth.schema``, ``fairsynth.tstr``, ...).
"""

from .copula import fit, load_model, sample, save_model, shrink_correlation
from .demo import DemoSpec, demo_metadata, make_demo_dataset
from .external import ExternalBackend
from .quality import quality_report, real_side
from .reports import batch_evaluate, bench_table, summary_doc, write_reports
from .schema import Metadata, SplitSpec, load_dataset, split_holdout, write_csv
from .scoring import synth_score
from .supervisor import RunConfig, Targets, supervise
from .tstr import fairness_report

__version__ = "0.1.0"
