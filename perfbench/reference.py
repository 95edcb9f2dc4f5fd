"""Print the README's reference figures as Markdown tables.

For each workload this makes one untraced and one traced run of the
benchmark on one seed, then prints the end-to-end metrics, the tracing
overhead (traced wall_s minus untraced wall_s, both medians over passes) and
the per-layer metrics of the traced run.

    python3 perfbench/reference.py [--seed 1] [--seconds 25]
"""

import argparse
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return result, details


def fmt(x):
    return f"{x:,}" if isinstance(x, int) else f"{x:.3g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    names = list(WORKLOADS)
    runs = {w: (bench(w, args.seed, args.seconds, 0), bench(w, args.seed, args.seconds, 1))
            for w in names}

    import numpy

    numba = "present" if importlib.util.find_spec("numba") else "absent"
    print(f"Python {platform.python_version()}, {runs[names[0]][0][1]['cpus']} CPUs, "
          f"numpy {numpy.__version__}, numba {numba}; seed {args.seed}, "
          f"{args.seconds:g} s per run.\n")
    e2e = list(runs[names[0]][0][0]["metrics"])
    print("| workload | " + " | ".join(e2e) + " | passes | ops/pass |")
    print("|---" * (len(e2e) + 3) + "|")
    for w in names:
        (res, det), _ = runs[w]
        cells = [fmt(res["metrics"][m]["value"]) for m in e2e]
        print(f"| {w} | " + " | ".join(cells) + f" | {len(det['pass_walls_s'])} | {det['ops_per_pass']} |")

    print("\n| workload | untraced wall_s | traced wall_s | overhead |")
    print("|---|---|---|---|")
    for w in names:
        (_, plain), (_, traced) = runs[w]
        a, b = plain["wall_s"], traced["wall_s"]
        print(f"| {w} | {a:.3f} s | {b:.3f} s | {b - a:+.3f} s ({(b - a) / a:+.0%}) |")

    layer = list(runs[names[0]][1][0]["metrics"])
    print("\n| metric | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for m in layer:
        cells = [fmt(runs[w][1][0]["metrics"][m]["value"]) for w in names]
        print(f"| `{m}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
