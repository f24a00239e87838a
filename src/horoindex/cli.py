"""Command-line front end.

One verb per invocation; all numeric output is exact ("p/q" strings or
integers).  Exit codes: 0 success, 2 unreadable or unparsable input or
unwritable output, 3 semantic validation failure, 4 route disagreement.
Output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .errors import DomainError, RouteDisagreementError, ValidationError
from .finite_sets import FiniteSet, saturation_check
from .gelfand_tsetlin import gt_lattice_count, gt_polytope, pattern_dim
from .lattices import AffineLattice
from .polarization import BodySystem, mixed_integral, mixed_volume
from .polytopes import hull, volume
from .rationals import Q
from .serialization import (body_system_from_json, polynomial_from_json,
                            polynomial_to_json, polytope_to_json,
                            problem_from_json, rat_to_json, vector_to_json)
from .spaces import (HorosphericalSpace, SupportSet, completion_support,
                     hilbert_function, index_report, moment_polytope,
                     newton_lift)
from .weyl import (ChamberFace, GroupDescriptor, dim_irrep, restricted_weyl,
                   weyl_polynomial)

EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_DISAGREE = 4


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ParseFailure(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


class _ParseFailure(Exception):
    """Input could not be read or parsed (exit 2)."""

    kind = "parse"


class _OutputFailure(_ParseFailure):
    """The -o file could not be written (exit 2)."""

    kind = "io"


def _emit(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutputFailure(f"{args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_int_list(text):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise _ParseFailure(f"bad integer list {text!r}") from exc


def _group_from_args(args) -> GroupDescriptor:
    gl = _parse_int_list(args.gl) if args.gl else []
    return GroupDescriptor(tuple(gl), args.torus)


def _face_from_args(group, args) -> ChamberFace:
    if not args.blocks:
        return ChamberFace.full_chamber(group)
    parts = [tuple(_parse_int_list(p)) for p in args.blocks.split(";")]
    return ChamberFace(group, tuple(parts))


def cmd_index(args):
    space, supports = problem_from_json(_load_json(args.input))
    report = index_report(space, supports)
    routes = {"integral": rat_to_json(report.integral_route),
              "lift": rat_to_json(report.lift_route),
              "hilbert": None if report.hilbert_route is None
              else rat_to_json(report.hilbert_route)}
    _emit({"index": str(report.index), "routes": routes}, args)
    return 0


def cmd_moment(args):
    space, supports = problem_from_json(_load_json(args.input))
    _emit({"polytopes": [polytope_to_json(moment_polytope(s)) for s in supports]}, args)
    return 0


def cmd_newton(args):
    space, supports = problem_from_json(_load_json(args.input))
    lifts = [newton_lift(space.face, moment_polytope(s)) for s in supports]
    _emit({"polytopes": [polytope_to_json(p) for p in lifts]}, args)
    return 0


def cmd_completion(args):
    space, supports = problem_from_json(_load_json(args.input))
    out = []
    for s in supports:
        comp = completion_support(s)
        out.append([vector_to_json(space.face.expand(w)) for w in comp.weights])
    _emit({"supports": out}, args)
    return 0


def cmd_weyl(args):
    group = _group_from_args(args)
    payload = {"dimension_polynomial": polynomial_to_json(weyl_polynomial(group))}
    if args.weight:
        weight = _parse_int_list(args.weight)
        payload["dimension"] = dim_irrep(group, weight)
    if args.blocks is not None:
        face = _face_from_args(group, args)
        f_sigma, phi = restricted_weyl(face)
        payload["restricted"] = polynomial_to_json(f_sigma)
        payload["top_component"] = polynomial_to_json(phi)
        payload["degree"] = phi.degree()
    _emit(payload, args)
    return 0


def cmd_gc(args):
    if args.n < 1:
        raise DomainError("--n must be at least 1")
    weight = _parse_int_list(args.weight)
    if len(weight) != args.n:
        raise DomainError(f"--weight needs {args.n} entries")
    if args.count:
        _emit(gt_lattice_count(tuple(weight)), args)
        return 0
    if pattern_dim(args.n) == 0:
        _emit({"vertices": [[]]}, args)
        return 0
    gt = gt_polytope(tuple(Q(x) for x in weight))
    payload = polytope_to_json(gt)
    payload["volume"] = rat_to_json(volume(gt, AffineLattice.standard(pattern_dim(args.n))))
    _emit(payload, args)
    return 0


def cmd_mixed_volume(args):
    system = body_system_from_json(_load_json(args.input))
    _emit(rat_to_json(mixed_volume(system)), args)
    return 0


def cmd_mixed_integral(args):
    obj = _load_json(args.input)
    system = body_system_from_json(obj)
    if "polynomial" not in obj:
        raise DomainError("mixed-integral input needs a 'polynomial' field")
    poly = polynomial_from_json(obj["polynomial"])
    _emit(rat_to_json(mixed_integral(poly, system)), args)
    return 0


def cmd_hilbert(args):
    if args.k < 0:
        raise DomainError("--k must be nonnegative")
    space, supports = problem_from_json(_load_json(args.input))
    if not supports:
        raise DomainError("problem file has no supports")
    support = supports[0]
    values = {str(k): hilbert_function(space, support, k)
              for k in range(0, args.k + 1)}
    _emit({"values": values}, args)
    return 0


def _verify_battery(quick: bool):
    """Deterministic self-check battery.  Yields (name, ok, detail)."""
    rng = random.Random(20240611)

    def random_points(n, dim, lo=-3, hi=3):
        return [tuple(Q(rng.randint(lo, hi)) for _ in range(dim)) for _ in range(n)]

    # convex hull idempotence and lattice-point sanity
    for trial in range(3 if quick else 10):
        dim = rng.randint(1, 3)
        pts = random_points(rng.randint(2, 7), dim)
        p = hull(pts)
        ok = hull(p.vertices) == p
        yield (f"hull idempotent #{trial}", ok, "" if ok else f"points {pts}")

    # GT count equals the dimension formula
    for n in (2, 3):
        group = GroupDescriptor((n,))
        for _ in range(2 if quick else 6):
            lam = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
            ok = gt_lattice_count(tuple(lam)) == dim_irrep(group, lam)
            yield (f"GT count = dim, GL({n}) lambda={lam}", ok, "")

    # saturation of finite subsets of Z^n
    for trial in range(5 if quick else 20):
        dim = rng.randint(1, 2)
        pts = frozenset(tuple(rng.randint(0, 3) for _ in range(dim))
                        for _ in range(rng.randint(1, 5)))
        a = FiniteSet(pts)
        level = len(a) * (3 ** dim)
        ok = saturation_check(a, level)
        yield (f"saturation #{trial}", ok, "" if ok else f"A={sorted(pts)} n={level}")

    # mixed volume symmetry in the plane
    std2 = AffineLattice.standard(2)
    bodies = [hull(random_points(4, 2, 0, 2)) for _ in range(2)]
    v1 = mixed_volume(BodySystem((bodies[0], bodies[1]), std2))
    v2 = mixed_volume(BodySystem((bodies[1], bodies[0]), std2))
    yield ("mixed volume symmetry", v1 == v2, f"{v1} vs {v2}")

    # route agreement on a GL(2) diagonal, whose index is 6
    space = HorosphericalSpace.quotient(ChamberFace.full_chamber(GroupDescriptor((2,))))
    s = SupportSet(space, ((Q(0), Q(0)), (Q(2), Q(0)), (Q(2), Q(1))))
    try:
        index = index_report(space, [s] * space.num_supports).index
        yield ("index routes agree on GL(2)", index == 6, f"index={index}")
    except RouteDisagreementError as exc:
        yield ("index routes agree on GL(2)", False, str(exc))


def cmd_verify(args):
    failures = 0
    for name, ok, detail in _verify_battery(args.quick):
        status = "ok" if ok else "FAIL"
        line = f"{status:4s} {name}"
        if detail and not ok:
            line += f"  ({detail})"
        sys.stdout.write(line + "\n")
        if not ok:
            failures += 1
    sys.stdout.write(f"{'all checks passed' if not failures else f'{failures} failures'}\n")
    return 0 if failures == 0 else EXIT_SEMANTIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horoindex",
        description="Exact intersection indices on horospherical spaces.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_io(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="JSON input file")
        p.add_argument("-o", "--output", help="write JSON here instead of stdout")
        return p

    with_io(sub.add_parser("index", help="intersection index of a support system"))
    with_io(sub.add_parser("moment", help="moment polytopes of the supports"))
    with_io(sub.add_parser("newton", help="lifted Newton polytopes of the supports"))
    with_io(sub.add_parser("completion", help="complete each support inside its polytope"))

    p = with_io(sub.add_parser("weyl", help="dimension polynomial and face restrictions"),
                needs_input=False)
    p.add_argument("--gl", help="comma-separated GL factor sizes, e.g. 3 or 3,2")
    p.add_argument("--torus", type=int, default=0)
    p.add_argument("--weight", help="evaluate the dimension at this weight")
    p.add_argument("--blocks", help="face blocks per factor, e.g. '1,2' or '1,2;1,1'")

    p = with_io(sub.add_parser("gc", help="Gelfand-Tsetlin polytope of a dominant weight"),
                needs_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True, help="comma-separated, non-increasing")
    p.add_argument("--count", action="store_true", help="print the lattice-point count")

    with_io(sub.add_parser("mixed-volume", help="mixed volume of a body system"))
    with_io(sub.add_parser("mixed-integral", help="mixed integral of a polynomial"))

    p = with_io(sub.add_parser("hilbert", help="Hilbert function of the first support"))
    p.add_argument("--k", type=int, default=3, help="evaluate at 0..k")

    p = sub.add_parser("verify", help="run the built-in property battery")
    p.add_argument("--quick", action="store_true")

    return parser


_DISPATCH = {
    "index": cmd_index,
    "moment": cmd_moment,
    "newton": cmd_newton,
    "completion": cmd_completion,
    "weyl": cmd_weyl,
    "gc": cmd_gc,
    "mixed-volume": cmd_mixed_volume,
    "mixed-integral": cmd_mixed_integral,
    "hilbert": cmd_hilbert,
    "verify": cmd_verify,
}


_parser = functools.cache(build_parser)  # built on first use, reused by every call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.verb](args)
    except _ParseFailure as exc:
        sys.stderr.write(json.dumps({"error": exc.kind, "detail": str(exc)}) + "\n")
        return EXIT_PARSE
    except RouteDisagreementError as exc:
        sys.stderr.write(json.dumps({"error": "route-disagreement", "detail": str(exc)}) + "\n")
        return EXIT_DISAGREE
    except (DomainError, ValidationError) as exc:
        sys.stderr.write(json.dumps({"error": "validation", "detail": str(exc)}) + "\n")
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
