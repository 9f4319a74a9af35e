"""Check the virial growth bound U' >= 1/4 ||(v,w)||_X^2 on seeded
small-amplitude runs (the quantitative heart of the Liouville argument),
through the same audit as ``ll-lab virial-audit``."""

import numpy as np

from ll_lab import run_virial_audit

AMPLITUDE = 0.01
RUNS = 5
T = 10.0
SEED = 100


def main():
    print(f"{RUNS} runs, amplitude {AMPLITUDE}, T = {T}")
    report, table = run_virial_audit(AMPLITUDE, SEED, RUNS, T)
    run = np.asarray(table["run"])
    margin = np.asarray(table["margin"])
    rate = np.asarray(table["rate"])
    for k in range(len(report.verdicts)):
        rows = run == k
        print(f"  seed {SEED + k}: min margin {margin[rows].min():+.6e} "
              f"(max U' {rate[rows].max():.3e})")
    if report.error is not None:
        print(f"stopped: {report.error}")
    worst = min((v.measured for v in report.verdicts), default=np.nan)
    print(f"worst margin over all runs: {worst:+.6e} "
          f"({'coercive' if report.all_passed else 'VIOLATED'})")


if __name__ == "__main__":
    main()
