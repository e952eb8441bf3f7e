"""Batch front end.

JSON in, JSON or aligned text out, deterministic bytes for a fixed input.
Exit codes: 0 when everything asked for was computed and every performed
check came back Verified or VerifiedByClassification, 1 when a check
failed, 2 for invalid input. No interactive mode; randomized testing lives
in the test suite.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import (CoefficientComplex, DegreeOutOfRange, FreeComplex, uct_certificate,
                        uct_certificates)
from .groups import PresentedGroup, parse_group
from .kolmogoroff import (ConditionViolated, FiniteModel, NerveComplex,
                          Partition, kolmogoroff_homology, model_preset)
from .limits import Telescope, Tower, colim, lim, lim1, lim_higher, six_term_check
from .matrices import IntMatrix, smith_normal_form
from .tautness import (InconsistentData, LimNotExact, NeighborhoodTower,
                       _tautness_reports, milnor_sequence, reports_consistent,
                       tautness_preset)

PROG = "tauthom"

# The check errors that derive from ValueError must be caught first.
_CHECK_ERRORS = (AssertionError, ConditionViolated, InconsistentData, LimNotExact)
_INPUT_ERRORS = (OSError, KeyError, TypeError, ValueError)


def build_parser():
    p = argparse.ArgumentParser(
        prog=PROG,
        description="exact homological algebra for towers, set functions "
                    "and tautness checks")
    p.add_argument("verb", choices=["snf", "group", "homology", "uct", "lim",
                                    "colim", "sixterm", "kolmogoroff", "nerve",
                                    "tautness", "milnor"])
    p.add_argument("--input", help="path to the JSON input")
    p.add_argument("--preset", help="named built-in input")
    p.add_argument("--coefficients", default=None,
                   help="coefficient group, e.g. Z, Z/2, Z+Z/4 (default Z)")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--reduced", action="store_true",
                   help="use reduced degree-zero data in presets")
    return p


@functools.cache
def _parser():
    """The parser of this process, built on first use. ``parse_args`` leaves
    it unchanged and argparse makes a fresh formatter for every help or
    error message, so reusing it changes no output."""
    return build_parser()


def _load(args):
    if args.input is None:
        raise ValueError("this verb needs --input")
    with open(args.input, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _coefficients(args):
    """The --coefficients group, Z when the flag is absent; an empty
    expression is rejected like any other malformed one."""
    return PresentedGroup(1, ()) if args.coefficients is None \
        else parse_group(args.coefficients)


def _need_degree(args):
    if args.degree is None:
        raise ValueError("this verb needs --degree")
    return args.degree


def _chosen_degrees(args, available):
    """[--degree] when it lies in ``available``, a range of consecutive
    degrees; all of them when no degree is given."""
    available = sorted(available)
    if args.degree is None:
        return available
    if args.degree not in available:
        raise DegreeOutOfRange("degree %d outside [%d, %d]"
                               % (args.degree, available[0], available[-1]))
    return [args.degree]


# the text json.dumps gives a str, an int, a bool or None, by exact type
_SCALAR_TEXT = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _json_text(obj):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, without
    the standard library's pure-Python indenting encoder."""
    out = []
    _json_pieces(obj, "\n", out)
    return "".join(out)


def _json_pieces(obj, pad, out):
    """Append the text of ``obj`` to ``out`` in small pieces, joined once
    at the end: dicts with string keys and lists are laid out here, a list
    of ints in one pass, and anything else, floats included, goes through
    ``json.dumps`` itself. ``pad`` is a newline and the indentation of the
    line that holds ``obj``."""
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar:
        out.append(scalar(obj))
        return
    inner = pad + "  "
    if type(obj) is dict and all(type(k) is str for k in obj):
        sep = "{" + inner
        for k in sorted(obj):
            out.append(sep + _SCALAR_TEXT[str](k) + ": ")
            _json_pieces(obj[k], inner, out)
            sep = "," + inner
        out.append(pad + "}" if obj else "{}")
    elif type(obj) in (list, tuple):
        if not obj:
            out.append("[]")
        elif set(map(type, obj)) == {int}:
            out.append("[" + inner + str(obj[0]))
            out.extend(map(("," + inner).__add__, map(str, obj[1:])))
            out.append(pad + "]")
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _json_pieces(x, inner, out)
                sep = "," + inner
            out.append(pad + "]")
    else:
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad))


def _emit(args, obj, text_lines):
    """The report: ``obj`` as JSON, or the lines that ``text_lines()``
    returns, which are built only for the text format."""
    if args.format == "json":
        return _json_text(obj)
    return "\n".join(text_lines())


def _outcome_lines(label, outcome, indent="  "):
    return ["%s%s: %s" % (indent, label, outcome.describe()),
            "%s  certificate: %s" % (indent, outcome.certificate)]


# -- verbs ---------------------------------------------------------------------


def _cmd_snf(args):
    mat = IntMatrix.from_json(_load(args))
    s = smith_normal_form(mat)
    nonzero = [x for x in s.diagonal if x != 0]
    obj = {"d": s.d.to_json(), "u": s.u.to_json(), "v": s.v.to_json(),
           "divisors": nonzero}
    return 0, _emit(args, obj, lambda: [
        "smith normal form of a %d x %d matrix" % (mat.rows, mat.cols),
        "  divisors: %s" % (nonzero,),
        "  d: %s" % (s.d.data,),
        "  u: %s" % (s.u.data,),
        "  v: %s" % (s.v.data,)])


def _cmd_group(args):
    if args.input is not None:
        g = PresentedGroup.from_json(_load(args))
    elif args.coefficients is not None:
        g = parse_group(args.coefficients)
    else:
        raise ValueError("group needs --input or --coefficients")
    obj = {"group": g.to_json(), "name": g.describe(),
           "free_rank": g.free_rank, "torsion": list(g.torsion)}
    return 0, _emit(args, obj, lambda: [
        "group: %s" % g.describe(),
        "  free rank: %d" % g.free_rank,
        "  invariant factors: %s" % (list(g.torsion),)])


def _complex_from_args(args):
    if args.preset is not None:
        model = model_preset(args.preset)
        nerve = NerveComplex(model, Partition.singletons(model.atoms))
        return nerve.cochain_complex()
    return FreeComplex.from_json(_load(args))


def _cmd_homology(args):
    cx = _complex_from_args(args)
    if args.coefficients is not None:
        coeffs = _coefficients(args)
        hom = CoefficientComplex(cx, coeffs).homology_all()
        title = "homology of Hom(C, %s)" % coeffs.describe()
    else:
        hom = cx.homology_all()
        title = "integral %s groups" % (
            "homology" if cx.direction == "chain" else "cohomology")
    degrees = _chosen_degrees(args, hom)
    obj = {"degrees": {str(n): hom[n].describe() for n in degrees}}
    return 0, _emit(args, obj, lambda: [title] + [
        "  H_%d: %s" % (n, hom[n].describe()) for n in degrees])


def _cmd_uct(args):
    cx = _complex_from_args(args)
    coeffs = _coefficients(args)
    # uct_certificate raises DegreeOutOfRange for a degree outside the complex
    certs = uct_certificates(cx, coeffs) if args.degree is None \
        else {args.degree: uct_certificate(cx, coeffs, args.degree)}
    degrees = sorted(certs)
    obj = {"coefficients": coeffs.describe(),
           "degrees": {str(n): certs[n].to_json() for n in degrees}}

    def lines():
        out = ["universal-coefficient certificates over %s" % coeffs.describe()]
        for n in degrees:
            c = certs[n]
            out += ["degree %d" % n,
                    "  Ext-term: %s" % c.ext_term.describe(),
                    "  Hom-term: %s" % c.hom_term.describe(),
                    "  middle: %s" % c.middle.describe(),
                    "  split: verified"]
        return out
    return 0, _emit(args, obj, lines)


def _cmd_lim(args):
    tower = Tower.from_json(_load(args))
    l0 = lim(tower)
    l1 = lim1(tower)
    l2 = lim_higher(tower, 2)
    obj = {"lim": l0.to_json(), "lim1": l1.to_json(), "lim2": l2.to_json()}
    return 0, _emit(args, obj, lambda: [
        "derived limits of a tower (%d prefix stages%s)"
        % (len(tower.stages), ", periodic tail" if tower.tail else "")]
        + _outcome_lines("lim", l0) + _outcome_lines("lim1", l1) + _outcome_lines("lim2", l2))


def _cmd_colim(args):
    telescope = Telescope.from_json(_load(args))
    out = colim(telescope)
    obj = {"colim": out.to_json()}
    return 0, _emit(args, obj, lambda: [
        "colimit of a telescope (%d prefix stages%s)"
        % (len(telescope.stages), ", periodic tail" if telescope.tail else ""),
        "  colim: %s" % out.describe(),
        "    certificate: %s" % out.certificate])


def _cmd_sixterm(args):
    telescope = Telescope.from_json(_load(args))
    coeffs = _coefficients(args)
    rep = six_term_check(telescope, coeffs)
    obj = rep.to_json()

    def lines():
        out = ["six-term limit sequence over %s" % coeffs.describe()]
        out += _outcome_lines("lim1 Hom", rep.lim1_hom)
        out += _outcome_lines("Ext(colim)", rep.ext_colim)
        out += _outcome_lines("lim Ext", rep.lim_ext)
        out += _outcome_lines("lim2 Hom", rep.lim2_hom)
        if rep.iso is not None:
            out.append("  middle comparison: %s"
                       % ("isomorphism" if rep.iso.verified else "FAILED"))
            out.append("    %s" % rep.iso.detail)
        return out + ["  note: %s" % note for note in rep.notes]
    code = 1 if rep.iso is not None and not rep.iso.verified else 0
    return code, _emit(args, obj, lines)


def _model_and_partition(args):
    if args.preset is not None:
        model = model_preset(args.preset)
        return model, Partition.singletons(model.atoms)
    obj = _load(args)
    model = FiniteModel.from_json(obj["model"] if "model" in obj else obj)
    if "partition" in obj:
        part = Partition.from_json(obj["partition"])
    else:
        part = Partition.singletons(model.atoms)
    return model, part


def _cmd_kolmogoroff(args):
    model, part = _model_and_partition(args)
    coeffs = _coefficients(args)
    hom = kolmogoroff_homology(model, part, coeffs)
    degrees = _chosen_degrees(args, hom)
    obj = {"coefficients": coeffs.describe(),
           "degrees": {str(n): hom[n].describe() for n in degrees},
           "pipelines": "agree"}
    return 0, _emit(args, obj, lambda: [
        "set-function homology over %s (%d atoms, %d blocks)"
        % (coeffs.describe(), model.atoms, len(part))]
        + ["  H_%d: %s" % (n, hom[n].describe()) for n in degrees]
        + ["  boundary-evaluation and nerve pipelines agree"])


def _cmd_nerve(args):
    model, part = _model_and_partition(args)
    nerve = NerveComplex(model, part)
    counts = [nerve.count(n) for n in range(nerve.dimension + 1)]
    obj = {"dimension": nerve.dimension, "counts": counts,
           "simplices": {str(n): [list(s) for s in nerve.simplices[n]]
                         for n in range(nerve.dimension + 1)},
           "boundaries": {str(n): nerve.boundary_matrix(n).to_json()
                          for n in range(1, nerve.dimension + 1)}}
    return 0, _emit(args, obj, lambda: [
        "nerve on %d blocks, dimension %d" % (len(part), nerve.dimension),
        "  simplex counts: %s" % (counts,)] + [
        "  dim %d: %s" % (n, " ".join("".join(str(v) for v in s) if max(s) < 10 else str(s)
                                     for s in nerve.simplices[n]))
        for n in range(nerve.dimension + 1)])


def _ntower_from_args(args):
    if args.preset is not None:
        return tautness_preset(args.preset, args.reduced)
    return NeighborhoodTower.from_json(_load(args))


def _report_lines(rep):
    return rep.text().split("\n") + ["%s: %s" % (name, term.outcome.describe())
                                     for name, term in zip(("lim1", "middle", "lim"), rep.terms)]


def _cmd_tautness(args):
    data = _ntower_from_args(args)
    n = _need_degree(args)
    coeffs = _coefficients(args)
    if args.preset is not None and coeffs != PresentedGroup(1, ()):
        raise ValueError("tautness presets carry integral homology; --coefficients "
                         "must be Z with --preset, got %s" % coeffs.describe())
    taut, four = _tautness_reports(data, n, coeffs)
    agree = reports_consistent(taut, four)
    obj = {"tautness": taut.to_json(), "four_term": four.to_json(),
           "junction_agreement": agree}
    code = 1 if (taut.failed or four.failed or not agree) else 0
    return code, _emit(args, obj, lambda: [
        "tautness sequence at degree %d over %s" % (n, coeffs.describe())]
        + _report_lines(taut) + ["", "four-term comparison"] + _report_lines(four)
        + ["junction agreement: %s" % ("yes" if agree else "NO")])


def _cmd_milnor(args):
    data = _ntower_from_args(args)
    n = _need_degree(args)
    rep = milnor_sequence(data, n, "Milnor")
    obj = rep.to_json()
    return (1 if rep.failed else 0), _emit(args, obj, lambda: [
        "milnor sequence at degree %d" % n] + _report_lines(rep))


_DISPATCH = {"snf": _cmd_snf, "group": _cmd_group, "homology": _cmd_homology,
             "uct": _cmd_uct, "lim": _cmd_lim, "colim": _cmd_colim,
             "sixterm": _cmd_sixterm, "kolmogoroff": _cmd_kolmogoroff,
             "nerve": _cmd_nerve, "tautness": _cmd_tautness,
             "milnor": _cmd_milnor}


def run(args):
    return _DISPATCH[args.verb](args)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code, report = run(args)
    except _CHECK_ERRORS as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
