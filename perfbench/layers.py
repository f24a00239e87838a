"""Per-layer metrics from a traced run, and the layers each workload must reach.

Each metric names the span it comes from (`module.function` or
`module.Class.method`) and a statistic: `.calls`, `.self_s` (span time minus
child span time), a counter taken by a tracer hook, or a ratio with its base.
"""

from __future__ import annotations

from tracer import LAYERS

CALLS = (
    "spaces.moment_polytope", "polarization.polarize", "gelfand_tsetlin.newton_lift",
    "polytopes.hull", "polytopes.lattice_points", "polytopes.Polytope.contains",
    "lattices.AffineLattice.point_at", "polynomials.Polynomial.__call__",
    "linalg.dot", "linalg.rref", "linalg.nullspace", "linalg.det", "linalg.solve",
)

SELF_S = (
    "cli.main", "serialization.problem_from_json", "spaces.index_report",
    "spaces.index_via_integral", "spaces.index_via_lift", "spaces.hilbert_function",
    "polarization.polarize", "gelfand_tsetlin.newton_lift",
    "gelfand_tsetlin.vertices_of_inequality_system",
    "polytopes.hull", "polytopes.minkowski_sum", "polytopes.volume",
    "polytopes.lattice_points", "polynomials.Polynomial.__call__",
    "polynomials.integrate", "polynomials.Polynomial.compose_affine",
    "linalg.dot", "linalg.rref", "linalg.nullspace", "linalg.det", "linalg.solve",
)

COUNTERS = (
    "polarization.subset_sums", "gelfand_tsetlin.newton_lift.points_out",
    "polytopes.hull.points_in", "polytopes.hull.vertices_out",
    "polytopes.triangulation.simplices",
)

CACHED = ("weyl.restricted_weyl", "gelfand_tsetlin.gt_polytope")

# Layers (modules) each workload must reach, and spans it must never reach.
REACH = {
    "small-batch": (LAYERS, ()),
    "gl3-lift": (
        ("spaces", "polarization", "gelfand_tsetlin", "weyl", "polynomials",
         "polytopes", "lattices", "linalg", "rationals"),
        ("cli.main", "serialization.problem_from_json", "polytopes.lattice_points",
         "spaces.hilbert_function")),
    "hilbert-series": (
        ("spaces", "weyl", "polynomials", "polytopes", "lattices", "linalg", "rationals"),
        ("cli.main", "serialization.problem_from_json", "polarization.polarize",
         "gelfand_tsetlin.newton_lift", "polytopes.minkowski_sum")),
}


def _frac(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer):
    stats, counters = tracer.stats, tracer.counters
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = {"value": stats[name].calls, "unit": "count"}
    for name in SELF_S:
        out[f"{name}.self_s"] = {"value": stats[name].self_s, "unit": "s"}
    for name in COUNTERS:
        out[name] = {"value": counters[name], "unit": "count"}
    for name in CACHED:
        hits, lookups = tracer.cache_lookups(name)
        out[f"{name}.hit_frac"] = {"value": _frac(hits, lookups), "unit": "frac"}
    out["polarization.useful_frac"] = {
        "value": _frac(counters["polarization.useful"], counters["polarization.subset_sums"]),
        "unit": "frac"}
    out["polytopes.hull.extreme_frac"] = {
        "value": _frac(counters["polytopes.hull.vertices_out"],
                       counters["polytopes.hull.points_in"]),
        "unit": "frac"}
    out["polytopes.lattice_points.hit_frac"] = {
        "value": _frac(counters["polytopes.lattice_points.points"],
                       counters["polytopes.lattice_points.candidates"]),
        "unit": "frac"}
    return out


def layer_calls(tracer, layer):
    return sum(s.calls for name, s in tracer.stats.items() if name.startswith(layer + "."))


def reach_violations(workload, tracer):
    """Layers expected but not reached, and spans reached but not expected."""
    must, never = REACH[workload]
    out = [f"layer {layer} has no calls" for layer in must
           if layer_calls(tracer, layer) == 0]
    out += [f"{name} was called {tracer.stats[name].calls} times" for name in never
            if tracer.stats[name].calls]
    return out


def layer_table(tracer):
    """Every span with calls: {name: [calls, self s]}, plus counters and cache lookups."""
    table = {name: [s.calls, s.self_s] for name, s in sorted(tracer.stats.items())
             if s.calls}
    table.update({f"counter:{k}": v for k, v in sorted(tracer.counters.items())})
    for name in CACHED:
        table[f"cache:{name}"] = list(tracer.cache_lookups(name))
    return table
