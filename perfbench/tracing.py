"""Per-layer accounting for traced queries, installed from outside the
library with the interpreter's profiler (``cProfile``).

The profiler sees every call, so internal calls that reach a function
through a name imported into another module are counted too, which
patching module attributes would miss. A layer's self time is the
profiler's own time of the functions defined in that tauthom module.
Functions of other code (built-ins such as ``sum`` and ``len``, the
standard library, dataclass-generated methods) are charged to the layers
that called them, in proportion to the time spent under each caller, so
``json.dumps`` called from ``cli`` counts as ``cli`` time. A span is the
inclusive time of a set of entry points; a member called directly by
another member is subtracted once, so a ``lim`` inside ``six_term_check``
is not counted twice.
"""

import cProfile
import os

LAYERS = ("matrices", "groups", "complexes", "limits", "kolmogoroff",
          "tautness", "cli")


def _key(func):
    code = func.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _spans(tauthom):
    """Span name -> (entry points, caller the time must come from or None)."""
    m, g, c = tauthom.matrices, tauthom.groups, tauthom.complexes
    lm, k, t = tauthom.limits, tauthom.kolmogoroff, tauthom.tautness
    return {
        "matrices.snf_s": ([m.smith_normal_form.__wrapped__], None),
        "groups.functor_s": ([g.HomGroup.__init__, g.ExtGroup.__init__,
                              g.HomGroup.pullback, g.ExtGroup.pullback], None),
        "complexes.certificate_s": ([c.uct_certificates], None),
        "limits.derived_s": ([lm.lim, lm.lim1, lm.colim, lm.six_term_check], None),
        "kolmogoroff.direct_s": ([k.KolmogoroffChain.boundary], None),
        "kolmogoroff.nerve_s": ([c.CoefficientComplex.homology], k.kolmogoroff_homology),
        "tautness.sequence_s": ([t.tautness_sequence, t.four_term_sequence,
                                 t.milnor_sequence], None),
    }


def _counters(tauthom):
    m, g, k = tauthom.matrices, tauthom.groups, tauthom.kolmogoroff
    return {
        "matrices.snf_computed": m.smith_normal_form.__wrapped__,
        "matrices.matrices_built": m.IntMatrix.__init__,
        "matrices.products": m.IntMatrix.__mul__,
        "groups.subquotients": g.Subquotient.__init__,
        "kolmogoroff.block_evals": k.KolmogoroffChain.evaluate_blocks,
    }


class LayerProfile:
    """Self time per layer, inclusive span times and call counts, summed
    over every call made through ``call``."""

    def __init__(self, tauthom):
        self._snf = tauthom.matrices.smith_normal_form
        pkg = os.path.dirname(os.path.abspath(tauthom.__file__))
        self._layer_of_file = {os.path.join(pkg, name + ".py"): name for name in LAYERS}
        self._spans = {name: ([_key(f) for f in funcs], under and _key(under))
                       for name, (funcs, under) in _spans(tauthom).items()}
        self._counters = {name: _key(f) for name, f in _counters(tauthom).items()}
        self.self_s = dict.fromkeys(LAYERS + ("outside",), 0.0)
        self.span_s = dict.fromkeys(self._spans, 0.0)
        self.counts = dict.fromkeys(self._counters, 0)
        self.snf_calls = 0
        self.last_self_s = {}
        self._pending = None

    def call(self, fn):
        """Run ``fn()`` under the profiler and return its result. Its
        statistics wait until ``absorb``, so a timer around ``call`` does
        not count their processing."""
        before = self._snf.cache_info()
        prof = cProfile.Profile()
        prof.enable()
        try:
            return fn()
        finally:
            prof.disable()
            after = self._snf.cache_info()
            self.snf_calls += (after.hits + after.misses) - (before.hits + before.misses)
            self._pending = prof

    def absorb(self):
        """Add the statistics of the last ``call`` to the totals."""
        prof, self._pending = self._pending, None
        prof.create_stats()
        stats = prof.stats
        owners = {}

        def owner_shares(func, visiting):
            """Layer -> share of ``func``'s own time charged to that layer."""
            if func in owners:
                return owners[func]
            layer = self._layer_of_file.get(func[0])
            if layer is not None:
                return {layer: 1.0}
            callers = {c: edge for c, edge in stats[func][4].items()
                       if c in stats and c not in visiting}
            weight = {c: edge[2] or edge[0] for c, edge in callers.items()}
            total = sum(weight.values())
            shares = {}
            for c, w in weight.items():
                for layer, s in owner_shares(c, visiting | {func}).items():
                    shares[layer] = shares.get(layer, 0.0) + s * w / total
            shares = shares or {"outside": 1.0}
            if not visiting:
                owners[func] = shares
            return shares

        this = dict.fromkeys(self.self_s, 0.0)
        for func, (_, _, tt, _, _) in stats.items():
            for layer, share in owner_shares(func, frozenset()).items():
                this[layer] += tt * share
        for layer, v in this.items():
            self.self_s[layer] += v
        self.last_self_s = this
        for name, (members, under) in self._spans.items():
            total = 0.0
            for f in members:
                if f not in stats:
                    continue
                callers = stats[f][4]
                if under is not None:
                    total += callers[under][3] if under in callers else 0.0
                    continue
                total += stats[f][3]
                # time already inside another member of the same span
                total -= sum(edge[3] for c, edge in callers.items() if c in members)
            self.span_s[name] += total
        for name, f in self._counters.items():
            if f in stats:
                self.counts[name] += stats[f][1]

    def metrics(self):
        """Per-layer metrics by name: (value, unit)."""
        out = {"%s.self_s" % layer: (self.self_s[layer], "s") for layer in LAYERS}
        out.update({name: (v, "s") for name, v in self.span_s.items()})
        out.update({name: (v, "count") for name, v in self.counts.items()})
        out["matrices.snf_calls"] = (self.snf_calls, "count")
        return out
