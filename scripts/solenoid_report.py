"""Sweep winding towers and print the classified limit sequences.

For each winding degree p the script builds the neighborhood data of the
p-adic solenoid, runs the three sequence builders in degrees 0 and 1, and
prints the aligned diagrams with per-junction verdicts, ending with a
junction-agreement summary. Unrolling the periodic tail into an explicit
prefix must not change any classification; the sweep re-checks that too.

Usage: PYTHONPATH=src python3 scripts/solenoid_report.py [--degrees 2 3 5] [--reduced]
"""

import argparse
import sys
from dataclasses import dataclass, field

from tauthom.groups import GroupMap, PresentedGroup, parse_group
from tauthom.limits import Telescope, Tower
from tauthom.matrices import IntMatrix
from tauthom.tautness import (NeighborhoodTower, four_term_sequence,
                              milnor_sequence, reports_consistent,
                              solenoid_tower, tautness_sequence)


@dataclass
class SweepConfig:
    windings: tuple = (2, 3, 5)
    degrees: tuple = (0, 1)
    unrollings: tuple = (1, 3, 6)
    coefficients: str = "Z"
    reduced: bool = False
    notes: list = field(default_factory=list)


def unrolled(p, prefix_stages, reduced):
    if prefix_stages <= 1:
        return solenoid_tower(p, reduced)
    zz = PresentedGroup(1, ())
    times_p = GroupMap(zz, zz, IntMatrix.from_rows([[p]]))
    ident = GroupMap.identity(zz)
    k = prefix_stages
    trivial = PresentedGroup(0, ())
    zero_t = Tower((trivial,), (), GroupMap.identity(trivial))
    h0 = zero_t if reduced else Tower((zz,) * k, (ident,) * (k - 1), ident)
    zero_c = Telescope((trivial,), (), GroupMap.identity(trivial))
    c0 = zero_c if reduced else Telescope((zz,) * k, (ident,) * (k - 1), ident)
    return NeighborhoodTower(
        {0: h0, 1: Tower((zz,) * k, (times_p,) * (k - 1), times_p), 2: zero_t},
        {0: c0, 1: Telescope((zz,) * k, (times_p,) * (k - 1), times_p),
         2: zero_c})


def run(cfg):
    coeffs = parse_group(cfg.coefficients)
    all_agree = True
    for p in cfg.windings:
        print("=" * 72)
        print("winding degree %d%s" % (p, " (reduced)" if cfg.reduced else ""))
        data = solenoid_tower(p, cfg.reduced)
        for n in cfg.degrees:
            taut = tautness_sequence(data, n, coeffs)
            four = four_term_sequence(data, n, coeffs)
            milnor = milnor_sequence(data, n)
            print("-" * 72)
            print("degree %d, tautness sequence" % n)
            print(taut.text())
            print("degree %d, four-term comparison" % n)
            print(four.text())
            print("degree %d, milnor extension" % n)
            print(milnor.text())
            agree = reports_consistent(taut, four) and \
                reports_consistent(taut, milnor)
            all_agree = all_agree and agree and not taut.failed
            print("junction agreement: %s" % ("yes" if agree else "NO"))
            reference = [t.outcome.kind for t in taut.terms]
            for k in cfg.unrollings:
                again = tautness_sequence(unrolled(p, k, cfg.reduced), n, coeffs)
                kinds = [t.outcome.kind for t in again.terms]
                if kinds != reference:
                    all_agree = False
                    print("UNSTABLE under unrolling to %d stages: %s" % (k, kinds))
            print("classifications stable under prefix unrolling %s"
                  % (tuple(cfg.unrollings),))
    print("=" * 72)
    print("corpus verdict: %s" % ("all junctions consistent" if all_agree
                                  else "DISAGREEMENT FOUND"))
    return 0 if all_agree else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 5],
                    help="winding degrees to sweep")
    ap.add_argument("--homology-degrees", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--coefficients", default="Z")
    ap.add_argument("--reduced", action="store_true")
    args = ap.parse_args(argv)
    cfg = SweepConfig(windings=tuple(args.degrees),
                      degrees=tuple(args.homology_degrees),
                      coefficients=args.coefficients, reduced=args.reduced)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
