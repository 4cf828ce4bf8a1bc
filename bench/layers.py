"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``.

Stats: ``calls``, ``self_s`` (duration minus direct traced children),
``failed`` (calls that raised) and ``hit_ratio`` (hits / lookups from the
unwrapped ``lru_cache``).  A bare ``<module>.self_s`` sums the self time
of every traced callable of that module.  The comment on each group
names the end-to-end metric and workload it should move.
"""

MODULES = ("scheme", "krawtchouk", "radial", "spectral", "bounds", "verify",
           "montecarlo", "cli")

CACHED = ("scheme.class_weights", "scheme.uniform", "spectral.spectrum",
          "krawtchouk.scaled_rows")

PER_LAYER = (
    # every workload: where the busy time sits
    *(f"{m}.self_s" for m in MODULES),
    "cli.main.calls",
    # window -> wall_s: per-row bound set-up, row assembly, the useful steps
    "bounds.upper_bound_lemma_rhs.calls",
    "bounds.upper_bound_lemma_rhs.self_s",
    "cli.cmd_profile.self_s",
    "radial.float_power_step.calls",
    "radial.float_power_step.self_s",
    "radial.float_power_step.elems",
    "scheme.class_weights.calls",
    "scheme.class_weights.self_s",
    "scheme.class_weights.hit_ratio",
    "scheme.uniform.hit_ratio",
    "spectral.spectrum.calls",
    "spectral.spectrum.self_s",
    "spectral.spectrum.hit_ratio",
    # sweep -> wall_s, float_err_max, peak_rss_mb: the float k-step engine
    "cli.cmd_verify.self_s",
    "bounds.tv_to_uniform.calls",
    "bounds.tv_to_uniform.self_s",
    "bounds.minorant_diagnostics.self_s",
    "spectral.kstep_distribution.calls",
    "spectral.kstep_distribution.self_s",
    "spectral.float_fallback_ratio",
    "radial.kstep_float_powering.calls",
    "radial.kstep_float_powering.self_s",
    "radial.radial_matrix.calls",
    "radial.radial_matrix.self_s",
    "verify.verify_majorant.self_s",
    "verify.minorant_sweep.self_s",
    "verify.cells",
    # exact -> wall_s: Fraction and big-integer arithmetic
    "verify.verify_upper.self_s",
    "verify.verify_lemma43_variance.self_s",
    "bounds.lemma35_ratio_check.self_s",
    "bounds.check_majorant.calls",
    "radial.power_step.calls",
    "radial.power_step.self_s",
    "krawtchouk.scaled_rows.self_s",
    "krawtchouk.scaled_rows.hit_ratio",
    "krawtchouk.build_table.self_s",
    "scheme.tv_distance.self_s",
    # simulate -> wall_s, cpu_s, peak_rss_mb: sampling and the oracle column
    "cli.cmd_simulate.self_s",
    "montecarlo.simulate.calls",
    "montecarlo.simulate.self_s",
    "montecarlo.empirical_tv.self_s",
    "montecarlo.draws",
    "radial.kstep_oracle.calls",
    "radial.kstep_oracle.failed",
    "radial.kstep_oracle.self_s",
    # the tracer itself
    "trace.calls",
    "trace.overhead_ratio",
)

UNITS = {"calls": "count", "failed": "count", "self_s": "s", "hit_ratio": "ratio",
         "elems": "count", "draws": "count", "cells": "count",
         "float_fallback_ratio": "ratio", "overhead_ratio": "ratio"}


def unit(name):
    return UNITS[name.rsplit(".", 1)[1]]


def _suite_cells(args, kwargs, result):
    if hasattr(result, "records"):
        return {"verify.cells": len(result.records)}
    return {"verify.cells": result.checked}


def _float_kstep(args, kwargs, result):
    backend = args[2] if len(args) > 2 else kwargs.get("backend", "exact")
    return {"spectral.kstep_distribution.float_calls": int(backend == "float")}


COUNTERS = {
    "radial.float_power_step": lambda a, kw, r: {"radial.float_power_step.elems": len(a[0])},
    "montecarlo.simulate": lambda a, kw, r: {"montecarlo.draws": a[0].walks * a[0].k},
    "spectral.kstep_distribution": _float_kstep,
    **{f"verify.{name}": _suite_cells for name in (
        "verify_upper", "verify_majorant", "minorant_sweep", "verify_lemma32",
        "verify_lemma35", "verify_lemma41", "verify_lemma42",
        "verify_lemma43_moments", "verify_lemma43_variance")},
}


def layer_metrics(snapshot, cache_infos):
    """Every PER_LAYER metric except trace.overhead_ratio, for one round."""
    stats, edges, counts = snapshot["stats"], snapshot["edges"], snapshot["counts"]
    out = {}
    for m in MODULES:
        out[f"{m}.self_s"] = sum(v[2] for k, v in stats.items() if k.startswith(m + "."))
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        agg = stats.get(fn, (0, 0.0, 0.0, 0))
        if stat == "calls":
            out[name] = agg[0]
        elif stat == "self_s" and fn not in MODULES:
            out[name] = agg[2]
        elif stat == "failed":
            out[name] = agg[3]
        elif stat == "hit_ratio":
            info = cache_infos[fn]
            lookups = info.hits + info.misses
            out[name] = info.hits / lookups if lookups else 0.0
    for key in ("radial.float_power_step.elems", "montecarlo.draws", "verify.cells"):
        out[key] = counts.get(key, 0)
    float_calls = counts.get("spectral.kstep_distribution.float_calls", 0)
    fallbacks = edges.get(("spectral.kstep_distribution", "radial.kstep_float_powering"), 0)
    out["spectral.float_fallback_ratio"] = fallbacks / float_calls if float_calls else 0.0
    out["trace.calls"] = sum(v[0] for v in stats.values())
    return out
