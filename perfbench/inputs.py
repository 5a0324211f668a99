"""Seeded input tables for the benchmark workloads.

The tables are built here, with numpy only, so that a change to fairsynth's
own demo generator cannot change what the benchmark feeds it. Two shapes:

* ``demo_table``: the six columns of the fairsynth demo (Race, Sex, two
  numeric scales, care setting, binary Diagnosis) with the same kind of
  label disparity for one Race group.
* ``wide_table``: the demo columns plus 20 numeric and 24 four-level
  categorical columns, all driven by one latent factor per row, which in turn
  leans on the label. 50 columns give 1,225 column pairs.

``write_inputs`` writes a table as ``data.csv`` plus ``metadata.json``. The
harness calls it in a separate process, so the generator's memory never counts
towards the job process's peak RSS.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

RACES = ("White", "Black", "Hispanic", "Asian")
RACE_WEIGHTS = (0.45, 0.25, 0.18, 0.12)
SEXES = ("Female", "Male")
SEX_WEIGHTS = (0.52, 0.48)
SETTINGS = ("community", "inpatient", "outpatient")
ELEVATED_GROUP = "Asian"
BASE_POSITIVE_RATE = 0.25
DISPARITY = 0.3  # added to the elevated group's positive rate

LABEL = "Diagnosis"
POSITIVE = "positive"
NEGATIVE = "negative"
PROTECTED = ("Race", "Sex")

WIDE_NUMERIC = 20
WIDE_CATEGORICAL = 24
WIDE_LEVELS = ("a", "b", "c", "d")
WIDE_STRUCTURE_SEED = 2605


def metadata_doc() -> dict:
    return {"label": {"column": LABEL, "positive": POSITIVE}, "protected": list(PROTECTED)}


def _demo_columns(rng: np.random.Generator, n: int) -> tuple[dict, np.ndarray]:
    """Demo-shaped columns (name -> array) and the boolean label."""
    race = np.array(RACES, dtype=object)[rng.choice(len(RACES), size=n, p=RACE_WEIGHTS)]
    sex = np.array(SEXES, dtype=object)[rng.choice(len(SEXES), size=n, p=SEX_WEIGHTS)]
    elevated = race == ELEVATED_GROUP
    p_positive = np.where(elevated, BASE_POSITIVE_RATE + DISPARITY, BASE_POSITIVE_RATE)
    y = rng.random(n) < p_positive
    symptom = rng.standard_normal(n) + 1.4 * y + 0.25 * elevated
    functioning = rng.normal(62.0, 11.0, size=n) - 9.0 * y
    setting_p = np.where(y[:, None], [0.2, 0.5, 0.3], [0.5, 0.2, 0.3])
    setting_idx = (rng.random(n)[:, None] >= np.cumsum(setting_p, axis=1)).sum(axis=1)
    columns = {
        "Race": race,
        "Sex": sex,
        "symptom_scale": symptom,
        "functioning_score": functioning,
        "setting": np.array(SETTINGS, dtype=object)[setting_idx],
        LABEL: np.where(y, POSITIVE, NEGATIVE).astype(object),
    }
    return columns, y


def demo_table(seed: int, n_rows: int) -> dict:
    columns, _ = _demo_columns(np.random.default_rng(seed), n_rows)
    return columns


def wide_table(seed: int, n_rows: int) -> dict:
    rng = np.random.default_rng(seed)
    columns, y = _demo_columns(rng, n_rows)
    latent = 0.8 * y + rng.standard_normal(n_rows)
    # Loadings and level cut points are fixed, so every seed gets a table of
    # the same structure and only the rows differ.
    structure = np.random.default_rng(WIDE_STRUCTURE_SEED)
    for k in range(WIDE_NUMERIC):
        loading = structure.uniform(0.3, 1.2)
        columns[f"num_{k:02d}"] = loading * latent + rng.standard_normal(n_rows)
    for k in range(WIDE_CATEGORICAL):
        loading = structure.uniform(0.3, 1.2)
        cuts = np.sort(structure.normal(0.0, 0.8, size=len(WIDE_LEVELS) - 1))
        level = np.searchsorted(cuts, loading * latent + rng.standard_normal(n_rows))
        columns[f"cat_{k:02d}"] = np.array(WIDE_LEVELS, dtype=object)[level]
    return columns


def _cells(values: np.ndarray) -> list[str]:
    if values.dtype.kind == "f":
        return [repr(v) for v in values.tolist()]
    return values.tolist()


def write_table(columns: dict, csv_path: Path) -> None:
    """CSV with shortest round-trip floats, so ingest reads back exact values."""
    cells = [_cells(v) for v in columns.values()]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(zip(*cells))


def write_inputs(table: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_table(table, out / "data.csv")
    (out / "metadata.json").write_text(json.dumps(metadata_doc(), indent=2) + "\n", encoding="utf-8")

