"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, in this one process, on one thread.  Set-up makes the workload's
inputs from the seed, as text, and has the program parse them.  Then whole
passes over the workload's fixed operation list run until the passes have
taken ``--seconds`` in total.  The outputs of the first pass are checked;
every later pass must give the same outputs.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, op_p50_ms,
setup_s, peak_rss_mib); with ``--trace 1`` every layer is wrapped and the
metrics are the per-layer ones (medians over passes).  Each run also writes
its details to ``perfbench/out/``, and a traced run the spans of its last
pass.  The exit code is 0 when the outputs are correct, 1 when they are not,
and 2 when the program cannot be found.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before `import lpoly`

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import lpoly from this checkout's src/, single-threaded."""
    if not (SRC / "lpoly" / "__init__.py").is_file():
        print(f"run.py: no program at {SRC / 'lpoly'}", file=sys.stderr)
        raise SystemExit(2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import lpoly

    if not Path(lpoly.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported lpoly from {lpoly.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return lpoly


def clear_memos():
    """Empty the program's memo caches, so each pass does a fresh process's work.

    Root systems stay cached: they are inputs, loaded during set-up.
    """
    from lpoly import rootsys

    for name, mod in list(sys.modules.items()):
        if name.startswith("lpoly"):
            for obj in list(vars(mod).values()):
                if hasattr(obj, "cache_clear") and obj is not rootsys.root_system:
                    obj.cache_clear()


def digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()


def run_pass(ops, outputs, errors):
    """One pass: every operation once.  Returns (wall seconds, op seconds, failures)."""
    clock = time.perf_counter
    times = []
    failed = 0
    t0 = clock()
    for op in ops:
        t = clock()
        try:
            outputs[op.key] = op.run()
        except Exception:  # a failing operation is counted, not fatal
            failed += 1
            outputs.pop(op.key, None)
            if len(errors) < 3:
                errors.append(f"{op.key}: {traceback.format_exc()}")
        times.append(clock() - t)
    return clock() - t0, times, failed


def run(args) -> tuple[dict, dict]:
    lpoly = import_program()
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed)
    work.load(lpoly)
    setup_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    ops = work.ops()
    walls, op_times, layer_rows = [], [], []
    attempted = failed = 0
    errors, fails, digests = [], [], None
    while not walls or sum(walls) < args.seconds:
        clear_memos()
        if tracer:
            tracer.reset()
            tracer.enabled = True
        outputs = {}
        wall, times, nfail = run_pass(ops, outputs, errors)
        if tracer:
            tracer.enabled = False
            layer_rows.append(tracer.layer_metrics())
        walls.append(wall)
        op_times += times
        attempted += len(ops)
        failed += nfail
        got = {k: digest(v) for k, v in outputs.items()}
        if digests is None:
            fails = work.check(outputs)
            digests = got
        elif got != digests:
            changed = sorted(str(k) for k in set(got) | set(digests) if got.get(k) != digests.get(k))
            fails.append(f"pass {len(walls)} outputs differ from pass 1 at {changed[:3]}")
        del outputs

    metrics = {}
    if tracer:
        # counts repeat exactly from pass to pass; times are medians over passes
        for name, (count, unit) in layer_rows[-1].items():
            value = count if unit == "count" else statistics.median(r[name][0] for r in layer_rows)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_times) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    result = {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "setup_s": setup_s, "pass_walls_s": walls, "wall_s": statistics.median(walls),
        "ops_per_pass": len(ops),
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "check_failures": fails[:20], "errors": errors, "result": result,
    }
    if tracer:
        tracer.uninstall()
        details["spans"] = len(tracer.spans)
        write_spans(args, tracer.spans)
    return result, details


def write_spans(args, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent"]) + "\n")
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    result, details = run(args)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    for line in details["check_failures"] + details["errors"]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
