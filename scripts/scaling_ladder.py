"""CPU time of kolmogoroff_homology and of the normal forms on inputs scaled up.

The ladder covers the circle models arc-circle:n over Z/2 and n x n
triangulated torus grids over Z and Z/2. Each rung runs
kolmogoroff_homology (its boundary identity check and its one homology run)
at the finest partition and prints the median process CPU time of
``--repeat`` runs together with the groups it found. With ``--uct``, each
circle and torus model also gets the median CPU time of uct_certificates
on its nerve cochain complex over Z/2 and over Z+Z/4, beside that of the
complex's homology_all. The dense rungs take one seeded n x n matrix with
entries in -9..9 each and print the median CPU time of smith_normal_form
and of hermite_form, that of the identity checks alone on the computed
forms (U*U^-1 == I and M*V == U^-1*D for the Smith form, M*V == [H | 0]
for the Hermite form; each is part of its form's time), the largest bit
length of the entries of the Smith transforms U and V, and that of the
determinant. The Hermite and Smith memos are emptied before every run,
and every model and complex is built afresh before its run, so no run
reads the forms or the nerve of the run before it.

Usage: PYTHONPATH=src python3 scripts/scaling_ladder.py [--arcs 40 80 160] [--tori 5 7 9]
       [--dense 16 32 48] [--repeat 3] [--uct]
"""

import argparse
import random
import statistics
import sys
import time

from tauthom.complexes import uct_certificates
from tauthom.groups import parse_group
from tauthom.kolmogoroff import (FiniteModel, NerveComplex, Partition, arc_circle,
                                 kolmogoroff_homology)
from tauthom.matrices import (IntMatrix, _verify_hermite, _verify_smith, determinant, hermite_form,
                              smith_normal_form)


def torus(n):
    """The n x n torus grid: atoms (i, j) mod n, two triangles per square."""
    def v(i, j):
        return (i % n) * n + j % n
    faces = [f for i in range(n) for j in range(n)
             for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                       (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    return FiniteModel(n * n, faces)


UCT_COEFFICIENTS = ("Z/2", "Z+Z/4")


def models(arcs, tori):
    """(label, model, the coefficient groups of its Kolmogoroff rungs)."""
    for n in arcs:
        yield "arc-circle:%d" % n, arc_circle(n), ("Z/2",)
    for n in tori:
        yield "torus %dx%d" % (n, n), torus(n), ("Z", "Z/2")


def cpu_seconds(run, repeat, make=lambda: None):
    """Median CPU seconds of ``run(make())`` over ``repeat`` runs, each with
    empty memos and ``make()`` called before its timer starts, and the
    result of the last run."""
    times = []
    for _ in range(repeat):
        hermite_form.cache_clear()
        smith_normal_form.cache_clear()
        arg = make()
        start = time.process_time()
        result = run(arg)
        times.append(time.process_time() - start)
    return statistics.median(times), result


def dense_matrix(n):
    rng = random.Random(n)
    return IntMatrix(n, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def max_bits(mat):
    return max((abs(x).bit_length() for row in mat.data for x in row), default=0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--arcs", nargs="*", type=int, default=[40, 80, 160])
    ap.add_argument("--tori", nargs="*", type=int, default=[5, 7, 9])
    ap.add_argument("--dense", nargs="*", type=int, default=[16, 32, 48])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--uct", action="store_true",
                    help="also time uct_certificates on each model's nerve cochain complex")
    args = ap.parse_args(argv)
    repeat = max(1, args.repeat)
    print("%-16s %-5s %10s  %s" % ("input", "over", "cpu_s", "groups"))
    for label, model, texts in models(args.arcs, args.tori):
        partition = Partition.singletons(model.atoms)
        for text in texts:
            coefficients = parse_group(text)
            seconds, groups = cpu_seconds(
                lambda fresh: kolmogoroff_homology(fresh, partition, coefficients), repeat,
                lambda: FiniteModel(model.atoms, model.maximal))
            print("%-16s %-5s %10.4f  %s" % (label, text, seconds, "  ".join(
                "H_%d=%s" % (n, g.describe()) for n, g in sorted(groups.items()))))
    if args.uct:
        print("\n%-16s %12s" % ("uct", "homology_s")
              + "".join(" %10s" % (text + "_s") for text in UCT_COEFFICIENTS))
        for label, model, _ in models(args.arcs, args.tori):
            make = NerveComplex(model, Partition.singletons(model.atoms)).cochain_complex
            row = [cpu_seconds(lambda cx: cx.homology_all(), repeat, make)[0]]
            for text in UCT_COEFFICIENTS:
                coefficients = parse_group(text)
                row.append(cpu_seconds(lambda cx: uct_certificates(cx, coefficients),
                                       repeat, make)[0])
            print("%-16s %12.4f" % (label, row[0]) + "".join(" %10.4f" % x for x in row[1:]))
    if args.dense:
        print("\n%-16s %10s %10s %10s %7s %7s %9s" % (
            "dense", "snf_s", "hermite_s", "check_s", "U_bits", "V_bits", "det_bits"))
    for n in args.dense:
        m = dense_matrix(n)
        snf_s, s = cpu_seconds(lambda _: smith_normal_form(m), repeat)
        hermite_s, hf = cpu_seconds(lambda _: hermite_form(m), repeat)
        check_s, _ = cpu_seconds(lambda _: (_verify_smith(m, s), _verify_hermite(m, hf)), repeat)
        print("%-16s %10.4f %10.4f %10.4f %7d %7d %9d" % (
            "%dx%d" % (n, n), snf_s, hermite_s, check_s, max_bits(s.u), max_bits(s.v),
            abs(determinant(m)).bit_length()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
