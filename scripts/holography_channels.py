"""Alias density versus the number of query frequencies.

For a source hidden in a 10-wavelength domain, shows how intersecting
the parity-bit alias sets of successive harmonic channels shrinks the
candidate measure, and prints the surviving intervals of the final set.
"""

import argparse

from phasorlab import holography


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--source", type=float, default=2.3)
    parser.add_argument("--channels", type=str, default="1,2,3,5,8")
    parser.add_argument("--alpha", type=float, default=0.0)
    parser.add_argument("--detector", type=float, default=0.0)
    args = parser.parse_args()

    domain = (0.0, 10.0)
    indices = [int(j) for j in args.channels.split(",")]
    channels = [holography.FrequencyChannel.harmonic(j, 1.0) for j in indices]

    bits = [holography.forward_bit(args.source, args.detector, c, args.alpha)
            for c in channels]
    length = domain[1] - domain[0]

    print("n_channels,highest_harmonic,measure,density,granularity")
    # one bit per channel: the k-th running intersection uses the first k channels
    prefixes = holography.localize_prefixes(bits, domain, 1)
    for k, result in enumerate(prefixes, start=1):
        print(f"{k},{channels[k - 1].index},{result.measure:.6f},"
              f"{result.measure / length:.6f},{result.granularity:.6f}")

    print()
    print("final alias intervals (lo, hi):")
    for lo, hi in result.intervals:
        marker = " <-- source" if lo <= args.source <= hi else ""
        print(f"  [{lo:.4f}, {hi:.4f}){marker}")


if __name__ == "__main__":
    main()
