"""Monte Carlo Planck spectrum versus the closed form.

Equilibrates one mode family per dimensionless lobe energy hf/k_B T on a
log grid and prints the comparison table, including the classical
equipartition value k_B T for reference.
"""

import argparse

import numpy as np

from phasorlab import cavity


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=10 ** 6)
    parser.add_argument("--burn-in", type=int, default=10 ** 4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--points", type=int, default=9)
    args = parser.parse_args()

    ratios = np.logspace(-0.7, 0.9, args.points)
    sweep = cavity.spectrum_sweep(list(ratios), args.steps, args.burn_in, args.seed)

    print("hf_over_kt,mc_mean_energy,mc_stderr,closed_form,rel_error,"
          "equipartition_kt,acceptance_rate")
    for f, mean, stderr, closed, rel, acc in zip(*sweep):
        print(f"{f:.6f},{mean:.8f},{stderr:.2e},{closed:.8f},{rel:.2e},1.0,{acc:.4f}")


if __name__ == "__main__":
    main()
