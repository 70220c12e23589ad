#!/usr/bin/env python3
"""Generate a deterministic synthetic TSPLIB instance file.

Used to produce the instances bundled under src/antbatch/data/. Re-running
with the same arguments reproduces the same file byte for byte.
"""

import argparse
import sys

from antbatch.bench import make_synthetic_instance
from antbatch.tsplib import serialize_instance


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("n", type=int, help="number of cities")
    ap.add_argument("--seed", type=int, default=0, help="coordinate seed")
    ap.add_argument("--kind", choices=["clustered", "uniform"],
                    default="clustered")
    ap.add_argument("--name", default="", help="instance NAME (default rnd<n>)")
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    args = ap.parse_args(argv)

    raw = make_synthetic_instance(args.n, seed=args.seed, kind=args.kind, name=args.name)
    text = serialize_instance(raw)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
