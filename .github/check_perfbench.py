"""Run one perfbench workload at --seed 1 and check the values it pins.

    python3 .github/check_perfbench.py WORKLOAD --trace 0|1

Run from the root of a checkout. perfbench/run.py exits 0 even when its
output check fails, so this reads its result line: the run must be correct
with no failed job. With ``--trace 0`` the artifacts must also match the
--seed 1 sha256 pinned in tests/perfbench_sha256.json; with ``--trace 1``
the traced counts must equal those pinned in tests/perfbench_counts.json,
and every span in the workload's ``live`` list there must read more than 0,
so a code path that stops calling a traced function is noticed. Exits 0
when every check holds, and otherwise with one line naming the first
difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SEED = 1
SECONDS = 3
SHA256_PINS = Path("tests/perfbench_sha256.json")
COUNT_PINS = Path("tests/perfbench_counts.json")


def _load(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, trace: int) -> str | None:
    """The first failed check of one run, or None when all hold."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        return f"perfbench/run.py exited {proc.returncode}"
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["correct"] is not True or result["failed"] != 0:
        return str(result)
    if trace == 0:
        got = _load(Path(f".perfbench_out/{workload}-seed{SEED}-trace0.json"))["artifact_sha256"]
        want = _load(SHA256_PINS)[workload]
        if got != want:
            return f"artifact sha256 {got} differ from the pinned {want}"
    else:
        pins = _load(COUNT_PINS)
        if workload not in pins:
            return f"no traced counts are pinned in {COUNT_PINS}"
        want = dict(pins[workload])
        live = want.pop("live", [])
        got = {name: result["metrics"][name]["value"] for name in want}
        if got != want:
            return f"traced counts {got} differ from the pinned {want}"
        dead = [name for name in live if not result["metrics"][name]["value"] > 0]
        if dead:
            return f"live spans {dead} read 0"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    failure = check(args.workload, args.trace)
    if failure is not None:
        print(f"{args.workload} trace {args.trace}: {failure}", file=sys.stderr)
        return 1
    print(f"{args.workload} trace {args.trace}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
