"""The qaharvest benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from src/; the
workloads, their reasons and the metrics are described in
perfbench/README.md. With --trace 0 the last line of standard output
is a JSON object holding every end-to-end metric; with --trace 1 it
holds every per-layer metric. The line before it carries the machine
facts, the output digests and, for a traced run, where the time went.
The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# the whole run, preparation included, must end well inside 180 s
DEADLINE_S = 170.0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=False
    )
    return out.stdout.strip() or None


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare the inputs and measure, each in its own child process."""
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=work_root))
    started = time.monotonic()
    try:
        job = {
            "workload": asdict(workload),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "workdir": str(work),
            "spans_path": str(HERE / "_out" / f"spans-{workload.name}.jsonl"),
        }
        (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
        # one BLAS thread: single-caller numpy at these sizes, and it keeps
        # a run from competing with itself on a small machine
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        for step in ("prepare", "run"):
            left = DEADLINE_S - (time.monotonic() - started)
            subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), step, str(work / "job.json")],
                env=env,
                stdout=sys.stderr,
                timeout=max(left, 1.0),
                check=True,
            )
        return json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qaharvest").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'qaharvest'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    except subprocess.CalledProcessError as exc:
        print(f"error: the workload process exited with {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: the workload did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": dict(result["machine"], git_commit=git_commit()),
        "digests": result["digests"],
    }
    for key in ("passes", "rounds", "breakdown", "absent", "spans_file"):
        if key in result:
            detail[key] = result[key]
    print(json.dumps(detail, sort_keys=True))
    correct = result["failed"] == 0
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": result["metrics"]}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
