"""JSON wire formats.

Rationals travel as "p/q" strings (plain integers allowed on input); floats
are rejected everywhere.  A JSON int parses to an int, so integer input
stays in ints; a string parses to a `Fraction`, which the constructors
turn into an int where it is integral.  Every emitted object re-parses to
an equal value.
"""

from __future__ import annotations

from .errors import DomainError
from .lattices import AffineLattice
from .polarization import BodySystem
from .polynomials import Polynomial
from .polytopes import Polytope, hull
from .rationals import Q, format_rat
from .spaces import QUOTIENT_MODE, HorosphericalSpace, SupportSet
from .weyl import ChamberFace, GroupDescriptor


def _object(value, what) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be a JSON object")
    return value


def _array(value, what) -> list:
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a JSON array")
    return value


def _field(obj, key, what):
    if key not in obj:
        raise DomainError(f"{what} needs a {key!r} field")
    return obj[key]


def rat_from_json(value):
    if isinstance(value, bool) or isinstance(value, float):
        raise DomainError(f"rationals must be integers or 'p/q' strings, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return Q(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad rational {value!r}: {exc}") from exc
    raise DomainError(f"bad rational {value!r}")


def rat_to_json(value):
    return format_rat(Q(value))


def vector_from_json(values):
    return tuple(rat_from_json(v) for v in _array(values, "a vector"))


def vector_to_json(vec):
    return [rat_to_json(v) for v in vec]


def _int_from_json(value) -> int:
    q = rat_from_json(value)
    if q.denominator != 1:
        raise DomainError(f"expected an integer, got {value!r}")
    return int(q.numerator)


def int_vector_from_json(values):
    return tuple(_int_from_json(v) for v in _array(values, "an integer vector"))


def polytope_from_json(obj) -> Polytope:
    vertices = _field(_object(obj, "a polytope"), "vertices", "polytope JSON")
    return hull([vector_from_json(v) for v in _array(vertices, "'vertices'")])


def polytope_to_json(p: Polytope) -> dict:
    return {"vertices": [vector_to_json(v) for v in p.vertices]}


def lattice_from_json(obj) -> AffineLattice:
    obj = _object(obj, "a lattice")
    offset = vector_from_json(obj.get("offset", []))
    basis = tuple(int_vector_from_json(b) for b in _array(obj.get("basis", []), "'basis'"))
    if not offset:
        offset = (0,) * (len(basis[0]) if basis else 0)
    return AffineLattice(offset, basis)


def polynomial_from_json(obj) -> Polynomial:
    terms = _array(_object(obj, "a polynomial").get("terms", []), "'terms'")
    if not terms:
        raise DomainError("polynomial JSON needs a nonempty 'terms' list")
    exps = {}
    nvars = None
    for t in terms:
        t = _object(t, "a polynomial term")
        exp = int_vector_from_json(_field(t, "exp", "a polynomial term"))
        if nvars is None:
            nvars = len(exp)
        elif len(exp) != nvars:
            raise DomainError("inconsistent exponent lengths")
        coef = rat_from_json(_field(t, "coef", "a polynomial term"))
        exps[exp] = exps.get(exp, Q(0)) + coef
    return Polynomial(exps, nvars)


def polynomial_to_json(poly: Polynomial) -> dict:
    return {"terms": [{"exp": list(e), "coef": rat_to_json(c)}
                      for e, c in sorted(poly.terms.items())]}


def body_system_from_json(obj) -> BodySystem:
    """Parse {'bodies', 'lattice'}; the lattice defaults to the standard one."""
    obj = _object(obj, "a body system")
    bodies = tuple(polytope_from_json(b) for b in _array(obj.get("bodies", []), "'bodies'"))
    if not bodies:
        raise DomainError("need a nonempty 'bodies' list")
    if "lattice" in obj:
        lattice = lattice_from_json(obj["lattice"])
    else:
        lattice = AffineLattice.standard(bodies[0].ambient_dim)
    return BodySystem(bodies, lattice)


def group_from_json(obj) -> GroupDescriptor:
    obj = _object(obj, "'group'")
    return GroupDescriptor(int_vector_from_json(obj.get("gl", [])),
                           _int_from_json(obj.get("torus", 0)))


def face_from_json(group: GroupDescriptor, obj) -> ChamberFace:
    blocks = _object(obj, "'face'").get("blocks")
    if blocks is None:
        return ChamberFace.full_chamber(group)
    return ChamberFace(group, tuple(int_vector_from_json(bs)
                                    for bs in _array(blocks, "'blocks'")))


def problem_from_json(obj):
    """Parse {'group', 'face', 'lambda_H', 'mode', 'supports'} into a space
    and its support sets.  Support weights are full weight coordinates."""
    obj = _object(obj, "a problem")
    group = group_from_json(obj.get("group", {}))
    face = face_from_json(group, obj.get("face", {}))
    mode = obj.get("mode", QUOTIENT_MODE)
    if "lambda_H" in obj:
        lam = lattice_from_json(obj["lambda_H"])
    else:
        lam = AffineLattice.standard(face.dim)
    space = HorosphericalSpace(face, lam, mode)
    supports = []
    for weights in _array(obj.get("supports", []), "'supports'"):
        supports.append(SupportSet.from_full_weights(
            space, [vector_from_json(w) for w in _array(weights, "a support")]))
    return space, supports
