import re

import pytest

from fairsynth.demo import DemoSpec, demo_metadata, make_demo_dataset


@pytest.fixture(scope="session")
def demo_data():
    return make_demo_dataset(DemoSpec(n_rows=2000, seed=0, disparity_strength=0.3))


@pytest.fixture(scope="session")
def demo_md():
    return demo_metadata()


# ---------------------------------------------------------------------------
# Acceptance reporting: tests named test_criterion_NN_* in test_acceptance.py
# each get exactly one PASS/FAIL line in the terminal summary.

CRITERION_TITLES = {
    1: "composite pins: (0.91,2.67)->0.68, (0.77,1.57)->0.77, (0.60,1.00)->0.60, mult(2.67)->0.75, all +/-0.005",
    2: "third-party synthesizer reference absolutes not reproducible here; covered by the invariant suites behind criteria 3-7",
    3: "self-comparison quality score == 1.0 +/- 1e-9 on the 2000-row demo table in < 2s",
    4: "ks/tv/contingency/group-fpr equal brute-force oracles exactly on 1000 random instances each (n <= 50) in < 30s",
    5: "copula recovery: fitted and sampled rho within 0.8 +/- 0.1 (n=2000); categorical TVD <= 0.05; < 5s",
    6: "logistic gradient matches central differences (h=1e-5, 10 random points), max relative error < 1e-4",
    7: "always-positive classifier: every group FPR 1.0, max_rel_fpr 1.0, degenerate, fairness multiplier 1.0",
    8: "supervisor on demo defaults: <= max_refinements+1 runs, parity failure routes to balance_groups first, best is argmax among evaluations with evidence, < 60s",
    9: "two identical run invocations emit byte-identical report files and synthetic CSV (sha256)",
    10: "bench defaults: train_rows 1000, sample_rows 500, epochs 20, seed 0",
}

_criterion_outcomes = {}

_CRITERION_ID = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    match = _CRITERION_ID.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _criterion_outcomes[number] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_outcomes):
        status = "PASS" if _criterion_outcomes[number] == "passed" else "FAIL"
        title = CRITERION_TITLES.get(number, "")
        terminalreporter.write_line(f"ACCEPTANCE {number:02d}: {status} - {title}")
