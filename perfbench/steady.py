"""Steadiness of the end-to-end metrics: the basis for the bounds in
BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--seed0 100]

Runs ``run.py`` --runs times per set on every workload of BENCHMARK.json, at
its run_seconds, alternating the order of the workloads from one repetition
to the next and giving every run its own seed.  For each workload and
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median, and, with --sets 2,
how far the second set's median moved from the first's.

Rule: every spread, setup_s's included, stays below a third of the metric's
bound, every move stays within the bound, and the share of failed operations
is the same in both sets.  A figure that breaks the rule is marked OVER, and
the command then exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
                           "--trace", "0"],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {"runs": len(results),
           "correct": all(r["correct"] for r in results),
           "failed_share": sorted({r["failed"] / r["attempted"] for r in results})}
    for name in BOUNDS:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed0", type=int, default=100)
    args = parser.parse_args()
    workloads = [w["name"] for w in BENCH["workloads"]]

    sets = []
    t0 = time.perf_counter()
    for s in range(args.sets):
        results: dict[str, list[dict]] = {w: [] for w in workloads}
        for rep in range(args.runs):
            order = workloads if rep % 2 == 0 else workloads[::-1]
            for wl in order:
                seed = args.seed0 + s * args.runs + rep
                results[wl].append(run_once(wl, seed))
                m = results[wl][-1]["metrics"]
                print(f"set {s + 1} run {rep + 1} {wl} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                      file=sys.stderr, flush=True)
        sets.append({w: summarize(r) for w, r in results.items()})

    print(f"{args.runs} runs per workload and set, {time.perf_counter() - t0:.0f} s in all")
    over = 0
    for wl in workloads:
        shares = [s[wl]["failed_share"] for s in sets]
        correct = all(s[wl]["correct"] for s in sets)
        bad = not correct or any(len(sh) != 1 or sh != shares[0] for sh in shares)
        over += bad
        print(f"\n{wl}: failed share {shares}, correct {correct}" + (" OVER" if bad else ""))
        for name, bound in BOUNDS.items():
            row = []
            for s in sets:
                st = s[wl][name]
                flag = " OVER" if st["spread"] > bound / 3 else ""
                over += bool(flag)
                row.append(f"median {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                           f"spread {st['spread']:.3f}{flag}")
            line = f"  {name:12s} bound {bound:.2f}: " + " | ".join(row)
            if len(sets) == 2:
                move = sets[1][wl][name]["median"] / sets[0][wl][name]["median"] - 1.0
                flag = " OVER" if move > bound else ""
                over += bool(flag)
                line += f" | move {move:+.3f}{flag}"
            print(line)
    out = HERE.parent / ".bench_work" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))
    print(f"\nwrote {out}")
    print(f"{over} figures break the rule (spread < bound/3, move <= bound)")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
