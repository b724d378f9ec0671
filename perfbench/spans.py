"""Spans and counters around the package's public functions, from outside it.

`Tracer.install()` wraps each function in SPANS under every name a
package module looks it up by (`cli.SignSurvey`, `sign_pipeline.
enumerate_prime_ideals`, `curves.ap_oracle`, ...), and methods on their
class.  A wrapper aggregates its calls into one record: call count, total
time and self time (total minus the time of spans nested inside it).
Hooks derive counters from arguments and results; their own time is
taken off the clock, so it lands in no span.  `uninstall()` restores
every patched name.  Nothing in the package is edited.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "hilbert_signs"


# ----------------------------------------------------------------------
# counter hooks: (tracer, args, kwargs, result) -> None
# ----------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _ap(tr, a, k, r):
    tr.count["curves.ap_ops"] += int(_arg(a, k, 1, "p"))  # symbol-table entries, O(p)


def _curve_series(tr, a, k, r):
    tr.count["eigen_io.cache_misses"] += 1


def _load(tr, a, k, r):
    tr.count["eigen_io.bytes_read"] += os.path.getsize(_arg(a, k, 0, "path"))


def _write(tr, a, k, r):
    tr.count["eigen_io.bytes_written"] += len(_arg(a, k, 1, "data"))


def _enumerate(tr, a, k, r):
    tr.count["field_arith.prime_ideals"] += len(r)


def _residue(tr, a, k, r):
    if _arg(a, k, 1, "P").residue_degree == 2:
        tr.count["field_arith.inert_symbol_calls"] += 1


def _from_tau(tr, a, k, r):
    tr.keep.append(r)  # keeps id(r) unique while the value_at keys below use it
    tr.count["characters.bad_set_size"] = max(
        tr.count["characters.bad_set_size"], len(r.bad_set)
    )


def _value_at(tr, a, k, r):
    tr.distinct.add((id(a[0]), _arg(a, k, 1, "P")))


def _ingest(tr, a, k, r):
    tr.count["sign_pipeline.entries_ingested"] += len(a[0].entries)


def _sample(tr, a, k, r):
    tr.count["sato_tate.draws"] += len(r)


def _mul(tr, a, k, r):
    A, B = _arg(a, k, 0, "A"), _arg(a, k, 1, "B")
    tr.count["formal_series.terms_in"] += len(A.coeffs) + len(B.coeffs)
    tr.count["formal_series.terms_out"] += len(r.coeffs)
    # pairs (a, b) with N(a) N(b) <= X: the products the truncated loop forms
    na = sorted(m.norm for m in A.coeffs)
    nb = sorted(m.norm for m in B.coeffs)
    j, pairs = len(nb), 0
    for n in na:
        while j and n * nb[j - 1] > A.cutoff:
            j -= 1
        pairs += j
    tr.count["formal_series.pair_products"] += pairs


# (module, attribute, span, hook).  "Class.method" patches the class.
SPANS = (
    ("cli", "main", "cli.main", None),
    ("curves", "ap_oracle", "curves.ap", _ap),
    ("curves", "series_from_curve", "curves.series", _curve_series),
    ("eigen_io", "cached_curve_series", "eigen_io.cached_curve", None),
    ("eigen_io", "load_fixture", "eigen_io.load", _load),
    ("eigen_io", "series_from_obj", "eigen_io.decode", None),
    ("eigen_io", "serialize_series", "eigen_io.serialize", None),
    ("eigen_io", "_atomic_write", "eigen_io.atomic_write", _write),
    ("field_arith", "enumerate_prime_ideals", "field_arith.enumerate", _enumerate),
    ("field_arith", "split_rational_prime", "field_arith.split", None),
    ("field_arith", "quadratic_residue_symbol", "field_arith.residue_symbol", _residue),
    ("characters", "IdealCharacter.from_tau", "characters.from_tau", _from_tau),
    ("characters", "IdealCharacter.value_at", "characters.value_at", _value_at),
    ("characters", "load_psi_table", "characters.psi_load", None),
    ("sign_pipeline", "EigenvalueSeries.__init__", "sign_pipeline.ingest", _ingest),
    ("sign_pipeline", "SignSurvey.__init__", "sign_pipeline.survey", None),
    ("sign_pipeline", "SignSurvey.tally", "sign_pipeline.tally", None),
    ("sign_pipeline", "lambda_sign", "sign_pipeline.lambda_sign", None),
    ("sign_pipeline", "renormalize_C", "sign_pipeline.renormalize", None),
    ("sign_pipeline", "sato_tate_coordinate", "sign_pipeline.coord", None),
    ("sato_tate", "sample_semicircle", "sato_tate.sample", _sample),
    ("sato_tate", "synth_eigen_series", "sato_tate.synth", None),
    ("sato_tate", "ks_statistic", "sato_tate.ks", None),
    ("sato_tate", "histogram_csv", "sato_tate.hist_csv", None),
    ("sato_tate", "histogram_svg", "sato_tate.hist_svg", None),
    ("formal_series", "series_mul", "formal_series.mul", _mul),
    ("formal_series", "character_zeta_series", "formal_series.zeta", None),
    ("formal_series", "character_moebius_series", "formal_series.moebius", None),
    ("formal_series", "extract_prime_relation", "formal_series.relation", None),
)

LAYERS = ("curves", "eigen_io", "field_arith", "characters", "sign_pipeline", "sato_tate", "formal_series")


class Tracer:
    """Span records and counters of one traced pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total, self]
        self.count = defaultdict(int)
        self.distinct: set = set()
        self.keep: list = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._off = 0.0  # hook time, excluded from every span

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter() - self._off
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - self._off - t0
                child = stack.pop()
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                h0 = perf_counter()
                hook(self, args, kwargs, result)
                self._off += perf_counter() - h0
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr, name, hook in SPANS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = getattr(owner, "__dict__", {}).get(method)
                if raw is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, hook))
                else:
                    new = self._wrap(raw, name, hook)
                self._patch(owner, method, new)
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            new = self._wrap(fn, name, hook)
            for m in modules:  # every name that resolves to fn, as callers look it up
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, new)
        if self.missing:
            print(f"trace: not found, reported as 0: {', '.join(self.missing)}", file=sys.stderr)

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    # ------------------------------------------------------------------

    def metrics(self, wall: float, stdout_bytes: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced pass, as name -> (value, unit)."""
        S, C = self.spans, self.count

        def tot(*names):
            return sum((S[n][1] for n in names if n in S), 0.0)

        def own(name):
            return S[name][2] if name in S else 0.0

        def calls(name):
            return S[name][0] if name in S else 0

        value_at_calls = calls("characters.value_at")
        m = {
            "curves.ap_s": (tot("curves.ap"), "s"),
            "curves.ap_calls": (calls("curves.ap"), "count"),
            "curves.ap_ops": (C["curves.ap_ops"], "count"),
            "curves.series_self_s": (own("curves.series"), "s"),
            "eigen_io.load_s": (tot("eigen_io.load"), "s"),
            "eigen_io.decode_s": (tot("eigen_io.decode"), "s"),
            "eigen_io.write_s": (tot("eigen_io.serialize", "eigen_io.atomic_write"), "s"),
            "eigen_io.bytes_read": (C["eigen_io.bytes_read"], "bytes"),
            "eigen_io.bytes_written": (C["eigen_io.bytes_written"], "bytes"),
            "eigen_io.cache_hits": (calls("eigen_io.cached_curve") - C["eigen_io.cache_misses"], "count"),
            "eigen_io.cache_misses": (C["eigen_io.cache_misses"], "count"),
            "field_arith.enumerate_s": (tot("field_arith.enumerate"), "s"),
            "field_arith.prime_ideals": (C["field_arith.prime_ideals"], "count"),
            "field_arith.split_s": (tot("field_arith.split"), "s"),
            "field_arith.split_calls": (calls("field_arith.split"), "count"),
            "field_arith.residue_symbol_s": (tot("field_arith.residue_symbol"), "s"),
            "field_arith.residue_symbol_calls": (calls("field_arith.residue_symbol"), "count"),
            "field_arith.inert_symbol_calls": (C["field_arith.inert_symbol_calls"], "count"),
            "characters.from_tau_s": (tot("characters.from_tau"), "s"),
            "characters.value_at_s": (own("characters.value_at"), "s"),
            "characters.value_at_calls": (value_at_calls, "count"),
            "characters.distinct_primes_per_call": (
                len(self.distinct) / value_at_calls if value_at_calls else 0.0, "ratio"),
            "characters.bad_set_size": (C["characters.bad_set_size"], "count"),
            "characters.psi_load_s": (tot("characters.psi_load"), "s"),
            "sign_pipeline.ingest_s": (tot("sign_pipeline.ingest"), "s"),
            "sign_pipeline.entries_ingested": (C["sign_pipeline.entries_ingested"], "count"),
            "sign_pipeline.survey_self_s": (own("sign_pipeline.survey"), "s"),
            "sign_pipeline.lambda_sign_s": (tot("sign_pipeline.lambda_sign"), "s"),
            "sign_pipeline.coord_s": (tot("sign_pipeline.renormalize", "sign_pipeline.coord"), "s"),
            "sign_pipeline.sign_decisions": (calls("sign_pipeline.lambda_sign"), "count"),
            "sign_pipeline.tally_s": (tot("sign_pipeline.tally"), "s"),
            "sato_tate.sample_s": (tot("sato_tate.sample"), "s"),
            "sato_tate.draws": (C["sato_tate.draws"], "count"),
            "sato_tate.synth_self_s": (own("sato_tate.synth"), "s"),
            "sato_tate.ks_s": (tot("sato_tate.ks"), "s"),
            "sato_tate.hist_s": (tot("sato_tate.hist_csv", "sato_tate.hist_svg"), "s"),
            "formal_series.mul_s": (tot("formal_series.mul"), "s"),
            "formal_series.mul_calls": (calls("formal_series.mul"), "count"),
            "formal_series.terms_in": (C["formal_series.terms_in"], "count"),
            "formal_series.terms_out": (C["formal_series.terms_out"], "count"),
            "formal_series.pair_products": (C["formal_series.pair_products"], "count"),
            "formal_series.euler_build_s": (tot("formal_series.zeta", "formal_series.moebius"), "s"),
            "formal_series.relation_s": (tot("formal_series.relation"), "s"),
            "cli.main_s": (tot("cli.main"), "s"),
            "cli.self_s": (own("cli.main"), "s"),
            "cli.stdout_bytes": (stdout_bytes, "bytes"),
        }
        attributed = sum(rec[2] for rec in S.values())
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(r[2] for n, r in S.items() if n.startswith(layer + ".")), "s")
        m["trace.wall_s"] = (wall, "s")
        m["trace.unattributed_s"] = (wall - attributed, "s")
        return m
