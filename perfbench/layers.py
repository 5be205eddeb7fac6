"""Per-layer metrics computed from the spans of one traced pass.

Layers are the package's modules. For a function span, ``.s`` is its
total duration (children included), ``.self_s`` its duration minus its
children's, ``.calls`` its count. ``<module>.self_s`` sums the self time
of every span of that module, and ``bench.self_s`` is the time inside the
pass that no package span covers. The module self times together with
``bench.self_s`` add up to the traced pass's wall time.

``ns_per_path_step`` of the simulation entry points counts the stepping
and the coefficient evaluation under it, but not the increment
generation, which has its own ``ns_per_draw``.
"""

from __future__ import annotations

from collections import defaultdict

SWEEP_SCHEMES = ("euler", "milstein", "log_euler", "log_milstein")
SWEEP_MODELS = ("gbm", "cev2", "exp_decay", "inverse_square", "rational_decay")

MODULES = ("config", "engine", "exponent", "models", "analysis", "bounds",
           "pricing", "svgplot")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _coupled_path_steps(args, kwargs, result):
    models, cfg = _arg(args, kwargs, 0, "models"), _arg(args, kwargs, 1, "cfg")
    return {"path_steps": len(models) * cfg.n_paths * cfg.n_steps}


def _flagged(args, kwargs, result):
    return {"flagged": sum(1 for p in result if p.flag)}


# Counts taken at the call, from the arguments and the result's array shapes.
EXTRACTORS = {
    "engine.increment_matrix": lambda a, k, r: {
        "draws": _arg(a, k, 0, "cfg").n_base_paths * _arg(a, k, 0, "cfg").n_steps,
        "bytes": r.nbytes},
    "engine.run_with_increments": lambda a, k, r: {
        "path_steps": _arg(a, k, 2, "dw").shape[0] * _arg(a, k, 2, "dw").shape[1],
        "bytes": r.values.nbytes, "breaches": int(r.breach_counts.sum())},
    "engine.simulate_coupled_stats": _coupled_path_steps,
    "engine.simulate_coupled_terminals": _coupled_path_steps,
    "pricing.coupled_smile": _flagged,
    "pricing.smile_from_terminal": _flagged,
}

# name -> (unit, better)
PER_LAYER = {
    "config.load_config.s": ("s", "lower"),
    "engine.increment_matrix.s": ("s", "lower"),
    "engine.increment_matrix.calls": ("count", "lower"),
    "engine.increment_matrix.ns_per_draw": ("ns", "lower"),
    "engine.increment_matrix.bytes_computed": ("B", "lower"),
    "engine.simulate_coupled_stats.self_s": ("s", "lower"),
    "engine.simulate_coupled_stats.ns_per_path_step": ("ns", "lower"),
    "engine.simulate_coupled_terminals.self_s": ("s", "lower"),
    "engine.simulate_coupled_terminals.ns_per_path_step": ("ns", "lower"),
    "engine.run_with_increments.self_s": ("s", "lower"),
    "engine.run_with_increments.ns_per_path_step": ("ns", "lower"),
    "engine.dense_bytes_computed": ("B", "lower"),
    **{f"engine.step.{s}.{m}.ns_per_path_step": ("ns", "lower")
       for s in SWEEP_SCHEMES for m in SWEEP_MODELS},
    "engine.positivity_breaches": ("count", "lower"),
    "engine.blowups": ("count", "lower"),
    "exponent.eval_p.s": ("s", "lower"),
    "exponent.eval_p.calls": ("count", "lower"),
    "exponent.eval_dp.s": ("s", "lower"),
    "exponent.eval_dp.calls": ("count", "lower"),
    "exponent.eval_phi.s": ("s", "lower"),
    "exponent.eval_phi.calls": ("count", "lower"),
    "exponent.eval_dphi.s": ("s", "lower"),
    "exponent.check_admissibility.s": ("s", "lower"),
    "models.diffusion.s": ("s", "lower"),
    "models.diffusion_deriv.s": ("s", "lower"),
    "analysis.strong_error_from_stats.s": ("s", "lower"),
    "analysis.terminal_stats.s": ("s", "lower"),
    "analysis.refinement_errors.self_s": ("s", "lower"),
    "bounds.bound_table.s": ("s", "lower"),
    "bounds.error_bound.calls": ("count", "lower"),
    "pricing.coupled_smile.self_s": ("s", "lower"),
    "pricing.implied_vol.calls": ("count", "lower"),
    "pricing.implied_vol.us_per_call": ("us", "lower"),
    "pricing.bs_call.calls": ("count", "lower"),
    "pricing.flagged_strikes": ("count", "lower"),
    "svgplot.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def covered_s(metrics: dict) -> float:
    """Sum of the module self times (cli included): the traced wall time
    minus bench.self_s."""
    return sum(metrics[f"{m}.self_s"] for m in MODULES + ("cli",))


def layer_metrics(tr, pass_idx: int) -> dict:
    """Per-layer metrics of the spans under the pass span `pass_idx`.

    `config.load_config.s` also counts the set-up's config load, which
    precedes the pass. `trace.overhead_s` needs an untraced pass and is
    filled in by the driver.
    """
    n = len(tr)
    self_t = tr.self_times()
    in_pass = [False] * n
    dur = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(lambda: defaultdict(float))
    mod_self = defaultdict(float)
    mod_incl = defaultdict(float)
    incr_under = defaultdict(float)  # increment_matrix time under each entry point
    blowups = set()
    load_config_s = 0.0
    for i in range(n):
        name = tr.name_of(i)
        d = tr.duration(i)
        if name == "config.load_config":
            load_config_s += d
        p = tr.parent[i]
        in_pass[i] = p == pass_idx or (p >= 0 and in_pass[p])
        if not in_pass[i]:
            continue
        parent_name = tr.name_of(p)
        dur[name] += d
        selfs[name] += self_t[i]
        calls[name] += 1
        for key, v in tr.extra.get(i, {}).items():
            extra[name][key] += v
            if parent_name.startswith("bench.step."):  # a scheme-sweep cell
                extra[parent_name][key] += v
        module = name.split(".", 1)[0]
        mod_self[module] += self_t[i]
        if p == pass_idx or parent_name.split(".", 1)[0] != module:
            mod_incl[module] += d
        if name == "engine.increment_matrix":
            for a in tr.ancestors(i):
                incr_under[tr.name_of(a)] += d
        exc = tr.errors.get(i)
        if exc is not None and type(exc).__name__ == "BlowUpError":
            blowups.add(id(exc))
    mod_self["bench"] += self_t[pass_idx]

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    m = {"config.load_config.s": load_config_s}
    im = "engine.increment_matrix"
    m[f"{im}.s"] = dur[im]
    m[f"{im}.calls"] = calls[im]
    m[f"{im}.ns_per_draw"] = per(dur[im], extra[im]["draws"], 1e9)
    m[f"{im}.bytes_computed"] = int(extra[im]["bytes"])
    for entry in ("engine.simulate_coupled_stats", "engine.simulate_coupled_terminals",
                  "engine.run_with_increments"):
        m[f"{entry}.self_s"] = selfs[entry]
        m[f"{entry}.ns_per_path_step"] = per(dur[entry] - incr_under[entry],
                                             extra[entry]["path_steps"], 1e9)
    m["engine.dense_bytes_computed"] = int(extra["engine.run_with_increments"]["bytes"])
    for s in SWEEP_SCHEMES:
        for mod in SWEEP_MODELS:
            cell = f"bench.step.{s}.{mod}"
            m[f"engine.step.{s}.{mod}.ns_per_path_step"] = per(
                dur[cell], extra[cell]["path_steps"], 1e9)
    m["engine.positivity_breaches"] = int(extra["engine.run_with_increments"]["breaches"])
    m["engine.blowups"] = len(blowups)
    for f in ("eval_p", "eval_dp", "eval_phi"):
        m[f"exponent.{f}.s"] = dur[f"exponent.{f}"]
        m[f"exponent.{f}.calls"] = calls[f"exponent.{f}"]
    m["exponent.eval_dphi.s"] = dur["exponent.eval_dphi"]
    m["exponent.check_admissibility.s"] = dur["exponent.check_admissibility"]
    m["models.diffusion.s"] = dur["models.diffusion"]
    m["models.diffusion_deriv.s"] = dur["models.diffusion_deriv"]
    m["analysis.strong_error_from_stats.s"] = dur["analysis.strong_error_from_stats"]
    m["analysis.terminal_stats.s"] = dur["analysis.terminal_stats"]
    m["analysis.refinement_errors.self_s"] = selfs["analysis.refinement_errors"]
    m["bounds.bound_table.s"] = dur["bounds.bound_table"]
    m["bounds.error_bound.calls"] = calls["bounds.error_bound"]
    m["pricing.coupled_smile.self_s"] = selfs["pricing.coupled_smile"]
    m["pricing.implied_vol.calls"] = calls["pricing.implied_vol"]
    m["pricing.implied_vol.us_per_call"] = per(dur["pricing.implied_vol"],
                                               calls["pricing.implied_vol"], 1e6)
    m["pricing.bs_call.calls"] = calls["pricing.bs_call"]
    m["pricing.flagged_strikes"] = int(extra["pricing.coupled_smile"]["flagged"]
                                       + extra["pricing.smile_from_terminal"]["flagged"])
    m["svgplot.s"] = mod_incl["svgplot"]
    m["cli.self_s"] = mod_self["cli"]
    for module in MODULES:
        m[f"{module}.self_s"] = mod_self[module]
    m["bench.self_s"] = mod_self["bench"]
    m["trace.wall_s"] = tr.duration(pass_idx)
    return m
