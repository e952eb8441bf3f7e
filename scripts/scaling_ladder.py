"""CPU time of kolmogoroff_homology on inputs scaled up.

The ladder covers the circle models arc-circle:n over Z/2 and n x n
triangulated torus grids over Z and Z/2. Each rung runs
kolmogoroff_homology (its boundary identity check and its one homology run)
at the finest partition and prints the median process CPU time of
``--repeat`` runs together with the groups it found. The Hermite and Smith
memos are emptied before every run, so no run reads the forms of the run
before it.

Usage: python3 scripts/scaling_ladder.py [--arcs 40 80 160] [--tori 5 7 9]
       [--repeat 3]
"""

import argparse
import statistics
import sys
import time

from tauthom.groups import parse_group
from tauthom.kolmogoroff import FiniteModel, Partition, arc_circle, kolmogoroff_homology
from tauthom.matrices import hermite_form, smith_normal_form


def torus(n):
    """The n x n torus grid: atoms (i, j) mod n, two triangles per square."""
    def v(i, j):
        return (i % n) * n + j % n
    faces = [f for i in range(n) for j in range(n)
             for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                       (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    return FiniteModel(n * n, faces)


def rungs(arcs, tori):
    for n in arcs:
        yield "arc-circle:%d" % n, arc_circle(n), "Z/2"
    for n in tori:
        for g in ("Z", "Z/2"):
            yield "torus %dx%d" % (n, n), torus(n), g


def cpu_seconds(model, coefficients, repeat):
    partition = Partition.singletons(model.atoms)
    times = []
    for _ in range(repeat):
        hermite_form.cache_clear()
        smith_normal_form.cache_clear()
        start = time.process_time()
        groups = kolmogoroff_homology(model, partition, coefficients)
        times.append(time.process_time() - start)
    return statistics.median(times), groups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--arcs", nargs="*", type=int, default=[40, 80, 160])
    ap.add_argument("--tori", nargs="*", type=int, default=[5, 7, 9])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    print("%-16s %-5s %10s  %s" % ("input", "over", "cpu_s", "groups"))
    for label, model, text in rungs(args.arcs, args.tori):
        seconds, groups = cpu_seconds(model, parse_group(text), max(1, args.repeat))
        print("%-16s %-5s %10.4f  %s" % (label, text, seconds, "  ".join(
            "H_%d=%s" % (n, g.describe()) for n, g in sorted(groups.items()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
