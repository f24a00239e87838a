"""Problem generators, executors and correctness oracles of the three workloads.

Every workload turns a seed into a fixed, ordered list of distinct problems
(its pool).  A run issues the pool in order, one problem at a time, until the
run's time is up, so runs on the same seed see the same problems in the same
order.  A problem is a plain tuple; its `key` is the canonical text that the
stored reference answers are indexed by.

Answers are checked after the timed loop, never inside it:

* closed forms where they exist (Bezout, Bernstein-Kushnirenko, flag degrees),
* the library's own route agreement (every route reported must be equal),
* a vanishing (p+1)-th finite difference over each Hilbert series,
* exact reference answers, for the default seed only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import horoindex
from horoindex import cli, gelfand_tsetlin, spaces

# Library entry points are looked up as module attributes at call time
# (`spaces.index_report`, `cli.main`), so the tracer's wrappers see them.

DEFAULT_SEED = 0


def problem_key(problem) -> str:
    return json.dumps(problem, separators=(",", ":"))


def key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _dominant_points(n, hi):
    """Non-increasing integer vectors of length n with entries in 0..hi."""
    return [p for p in product(range(hi, -1, -1), repeat=n)
            if all(p[i] >= p[i + 1] for i in range(n - 1))]


def write_in_place(path, text):
    """Write a file, reusing its blocks if it exists (no truncate-and-refill)."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _distinct_draws(count, draw):
    """`count` distinct values of `draw()`, in draw order."""
    seen, out = set(), []
    while len(out) < count:
        item = draw()
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


# --------------------------------------------------------------------------
# small-batch: in-process CLI `index` verb on many small, related problems
# --------------------------------------------------------------------------

SMALL_PARTS = ("bezout", "bk", "flag", "gl2q")
SMALL_PER_PART = 500
DIAGONAL_SIZES = (2, 3, 3, 4, 4, 4, 4, 4)  # GL(2) diagonal support sizes, per block


def _bezout_pool(rng, step):
    """Supports {step*k : k in S} with 0 in S: the moment polytope is
    [0, step*max S], so distinct supports share polytopes.  Every seed's pool
    has the same degrees: 1, 2, 2, 3, 3, 4, 4, 4."""
    by_top = {}
    for top in range(1, 5):
        for r in range(0, top):
            for inner in combinations(range(1, top), r):
                by_top.setdefault(top, []).append((0,) + inner + (top,))
    chosen = [s for top, count in ((1, 1), (2, 2), (3, 2), (4, 3))
              for s in rng.sample(by_top[top], count)]
    return [tuple((step * k, 0, 0) for k in s) for s in chosen]


def _bk_pool(rng):
    """Translated scaled simplices t + conv{0, d e1, d e2} on a rank-2 torus,
    each with a random subset of its other lattice points added; six
    distinct supports for each d = 1..4."""
    out = []
    for d in range(1, 5):
        corners = [(0, 0), (d, 0), (0, d)]
        others = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)
                  if (i, j) not in corners]
        made = set()
        while len(made) < 6:
            t = (rng.randint(-2, 2), rng.randint(-2, 2))
            extra = rng.sample(others, rng.randint(0, len(others)))
            made.add(tuple(sorted((t[0] + i, t[1] + j) for i, j in corners + extra)))
        out.extend(sorted(made))
    return out


def small_batch_pool(seed):
    """Problems ('part', problem JSON), round-robin over the four parts."""
    rng = random.Random(f"small-batch/{seed}")
    per_part = SMALL_PER_PART
    per_kind = per_part // 2
    parts = {}

    # Bezout systems on the GL(3) face (1,2): rank-1 and index-2 Lambda(H)
    bez = []
    for step in (1, 2):
        pool = _bezout_pool(rng, step)
        triples = rng.sample(list(product(range(len(pool)), repeat=3)), per_kind)
        bez.append([{
            "group": {"gl": [3], "torus": 0}, "face": {"blocks": [[1, 2]]},
            "lambda_H": {"offset": [0, 0], "basis": [[step, 0]]},
            "mode": "general",
            "supports": [[list(p) for p in pool[i]] for i in t]} for t in triples])
    parts["bezout"] = [x for pair in zip(*bez) for x in pair]

    # Bernstein-Kushnirenko on a rank-2 torus
    pool = _bk_pool(rng)
    pairs = rng.sample(list(product(range(len(pool)), repeat=2)), per_part)
    parts["bk"] = [{"group": {"gl": [], "torus": 2},
                    "supports": [[list(p) for p in pool[i]] for i in pair]}
                   for pair in pairs]

    # flag-variety singletons: GL(2) single weights, GL(3) weight triples
    def gl2_weight():
        b = rng.randint(0, 3)
        return (b + rng.randint(0, 99), b)

    gl2 = _distinct_draws(per_kind, gl2_weight)
    dominant3 = [w for w in _dominant_points(3, 4) if w[0] != w[2]]
    regular = [w for w in dominant3 if w[0] > w[1] > w[2]]
    singular = [w for w in dominant3 if w not in regular]
    weights3 = rng.sample(regular, 5) + rng.sample(singular, 3)
    triples = rng.sample(list(product(range(len(weights3)), repeat=3)), per_kind)
    flag2 = [{"group": {"gl": [2], "torus": 0}, "mode": "general",
              "lambda_H": {"offset": [0, 0], "basis": []},
              "supports": [[list(w)]]} for w in gl2]
    flag3 = [{"group": {"gl": [3], "torus": 0}, "mode": "general",
              "lambda_H": {"offset": [0, 0, 0], "basis": []},
              "supports": [[list(weights3[i])] for i in t]} for t in triples]
    parts["flag"] = [x for pair in zip(flag2, flag3) for x in pair]

    # random GL(2) quotient supports, coordinates 0..3: diagonal and mixed.
    # Support size sets the cost, so diagonal supports come in blocks with
    # the sizes of DIAGONAL_SIZES in random order, and the pool for mixed
    # systems has fixed numbers of each size.
    points = _dominant_points(2, 3)
    by_size = {r: list(combinations(points, r)) for r in range(1, 5)}
    blocks = -(-per_kind // len(DIAGONAL_SIZES))
    fresh = {r: iter(rng.sample(by_size[r], blocks * DIAGONAL_SIZES.count(r)))
             for r in set(DIAGONAL_SIZES)}
    diagonal = []
    for _ in range(blocks):
        sizes = list(DIAGONAL_SIZES)
        rng.shuffle(sizes)
        diagonal.extend(next(fresh[r]) for r in sizes)
    diagonal = diagonal[:per_kind]
    small = [s for r, count in ((1, 2), (2, 4), (3, 8), (4, 10))
             for s in rng.sample(by_size[r], count)]
    mixed = rng.sample([t for t in product(range(len(small)), repeat=3) if len(set(t)) > 1],
                       per_kind)
    diag_p = [{"group": {"gl": [2], "torus": 0},
               "supports": [[list(p) for p in s]] * 3} for s in diagonal]
    mixed_p = [{"group": {"gl": [2], "torus": 0},
                "supports": [[list(p) for p in small[i]] for i in t]} for t in mixed]
    parts["gl2q"] = [x for pair in zip(diag_p, mixed_p) for x in pair]

    return [(part, parts[part][i]) for i in range(per_part) for part in SMALL_PARTS]


def _flag3_degree(w):
    a, b, c = w
    return 3 * (a - b) * (a - c) * (b - c)


def _polarized(f, vectors):
    """Value at (v_1..v_n) of the symmetric multilinear form of the degree-n
    form f: (1/n!) * sum over nonempty S of (-1)^(n-|S|) f(sum_S v_i)."""
    n = len(vectors)
    total = Fraction(0)
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    for r in range(1, n + 1):
        for sub in combinations(vectors, r):
            s = tuple(sum(x) for x in zip(*sub))
            total += (-1) ** (n - r) * f(s)
    return total / fact


def small_batch_closed_form(problem):
    """The index by a classical closed form, or None where there is none."""
    sups = problem["supports"]
    gl = problem["group"]["gl"]
    if problem.get("mode") == "general" and gl == [3] and "face" in problem:
        basis = problem["lambda_H"]["basis"]
        if basis == [[1, 0]]:  # Bezout: product of the degrees
            out = 1
            for s in sups:
                ks = [p[0] for p in s]
                out *= max(ks) - min(ks)
            return out
        return None
    if gl == [] and problem["group"]["torus"] == 2:  # BK: d1 * d2
        out = 1
        for s in sups:
            xs = [p[0] for p in s]
            out *= max(xs) - min(xs)
        return out
    if problem.get("mode") == "general" and gl == [2]:  # P^1: degree a - b
        (a, b), = sups[0]
        return a - b
    if problem.get("mode") == "general" and gl == [3]:  # full flag threefold
        value = _polarized(_flag3_degree, [tuple(s[0]) for s in sups])
        if value.denominator != 1:
            raise ValueError(f"flag degree {value} is not an integer")
        return int(value)
    return None


# --------------------------------------------------------------------------
# gl3-lift: non-diagonal quotient systems on the GL(3) wall faces, p = 4
# --------------------------------------------------------------------------

LIFT_FACES = ((1, 2), (2, 1))
LIFT_PATTERN = (4, 5)  # lift vertex counts, two supports of each
LIFT_POOL = 160


def _wall_supports():
    """All supports of 2-3 dominant face points with coordinates 0..2."""
    pts = _dominant_points(2, 2)
    return [s for r in (2, 3) for s in combinations(pts, r)]


def _lift_sizes():
    """Vertex count of the Gelfand-Tsetlin lift of each catalogue support."""
    out = {}
    for blocks in LIFT_FACES:
        space = horoindex.HorosphericalSpace.quotient(
            horoindex.ChamberFace(horoindex.GroupDescriptor((3,)), (blocks,)))
        for support in _wall_supports():
            body = spaces.moment_polytope(horoindex.SupportSet(space, support))
            out[blocks, support] = len(gelfand_tsetlin.newton_lift(space.face, body).vertices)
    return out


def gl3_lift_pool(seed):
    """Problems (blocks, four face-coordinate supports), alternating faces.

    The stated size of a problem is the vertex counts of its four lifts:
    two supports whose lift has LIFT_PATTERN[0] vertices and two whose lift
    has LIFT_PATTERN[1].  Their sum predicts most of a problem's cost, so
    fixing it keeps every run's mix of cheap and expensive problems alike.
    """
    rng = random.Random(f"gl3-lift/{seed}")
    sizes = _lift_sizes()
    by_size = {(blocks, v): [s for s in _wall_supports() if sizes[blocks, s] == v]
               for blocks in LIFT_FACES for v in LIFT_PATTERN}
    seen, out = set(), []
    while len(out) < LIFT_POOL:
        blocks = LIFT_FACES[len(out) % 2]
        chosen = [s for v in LIFT_PATTERN for s in rng.sample(by_size[blocks, v], 2)]
        key = (blocks, tuple(sorted(chosen)))
        if key in seen:
            continue
        seen.add(key)
        out.append((list(blocks), [[list(p) for p in s] for s in chosen]))
    return out


# --------------------------------------------------------------------------
# hilbert-series: hilbert_function(space, s, k) for k = 0..K
# --------------------------------------------------------------------------

HILBERT_FACES = (((3,), 0, None), ((3,), 0, (1, 2)), ((3,), 0, (2, 1)), ((2,), 1, None))
# Coordinates 0..HILBERT_BOX[fi] on face fi.  A 2-D wall face has only 13
# distinct supports of the kind drawn below in the box 0..2, and 89 in 0..3.
HILBERT_BOX = (2, 3, 3, 2)
HILBERT_POOL = 160  # 40 rotations, several times what a 30 s run issues
CANDIDATE_BUDGET = 20000  # bounding-box candidates summed over k = 0..K


def _hilbert_space(gl, torus, blocks):
    group = horoindex.GroupDescriptor(gl, torus)
    if blocks is None:
        face = horoindex.ChamberFace.full_chamber(group)
    else:
        face = horoindex.ChamberFace(group, (blocks,))
    return horoindex.HorosphericalSpace.quotient(face)


def _series_length(widths, p):
    """Largest K >= p+1 whose dilations 0..K hold at most CANDIDATE_BUDGET
    bounding-box candidates in total."""
    def candidates(k):
        out = 1
        for w in widths:
            out *= k * w + 1
        return out
    k, total = 0, candidates(0)
    while total + candidates(k + 1) <= CANDIDATE_BUDGET:
        k += 1
        total += candidates(k)
    return max(k, p + 1)


def hilbert_series_pool(seed):
    """Series (face index, face-coordinate support, K), rotating over faces.

    A support is the two corners (0,..,0) and (hi,..,hi) of the face's box
    (hi = HILBERT_BOX[fi]) plus one to three random face points with
    coordinates 0..hi, drawn until the moment polytope is full-dimensional.
    Every support thus spans the whole box, so K and the bounding-box work
    per k depend only on the face.
    """
    rng = random.Random(f"hilbert-series/{seed}")
    out, seen = [], set()
    while len(out) < HILBERT_POOL:
        fi = len(out) % len(HILBERT_FACES)
        space, hi = _hilbert_space(*HILBERT_FACES[fi]), HILBERT_BOX[fi]
        face = space.face
        pts = {(0,) * face.dim, (hi,) * face.dim}
        for _ in range(rng.randint(1, 3)):
            coords = []
            for sizes in face.blocks:
                coords.extend(sorted((rng.randint(0, hi) for _ in sizes), reverse=True))
            coords.extend(rng.randint(0, hi) for _ in range(face.group.torus_rank))
            pts.add(tuple(coords))
        support = tuple(sorted(pts))
        if (fi, support) in seen:
            continue
        poly = spaces.moment_polytope(horoindex.SupportSet(space, support))
        if poly.dim != face.dim:
            continue
        seen.add((fi, support))
        p, _ = space.dims
        out.append((fi, [list(x) for x in support], _series_length([hi] * face.dim, p)))
    return out


def hilbert_calls(series_pool, seed):
    """The issued problems (face index, support, k).

    Series are taken one rotation over the faces at a time, and the calls of
    a rotation are issued in a seeded random order.  In series order a run's
    last, unfinished rotation would hold only the cheap low-k calls of its
    first series, and where the time limit cut it moved the median latency
    by a quarter from seed to seed.
    """
    rng = random.Random(f"hilbert-order/{seed}")
    calls = []
    width = len(HILBERT_FACES)
    for start in range(0, len(series_pool), width):
        rotation = [(fi, support, k) for fi, support, top in series_pool[start:start + width]
                    for k in range(top + 1)]
        rng.shuffle(rotation)
        calls.extend(rotation)
    return calls


def hilbert_series_check(calls, answers):
    """Per-call failure flags from the series structure: H(0) = 1 and every
    window of p+2 consecutive k whose values are all present has a vanishing
    (p+1)-th difference."""
    bad = [False] * len(calls)
    series = {}
    for i, (fi, support, k) in enumerate(calls):
        series.setdefault((fi, json.dumps(support)), {})[k] = i
    for (fi, _), at in series.items():
        p, _ = _hilbert_space(*HILBERT_FACES[fi]).dims
        if 0 in at and answers[at[0]] != 1:
            bad[at[0]] = True
        for j in range(max(at) - p):
            window = [at.get(k) for k in range(j, j + p + 2)]
            if None in window or any(answers[i] is None for i in window):
                continue
            diff = sum((-1) ** (p + 1 - n) * comb(p + 1, n) * answers[i]
                       for n, i in enumerate(window))
            if diff != 0:
                for i in window:
                    bad[i] = True
    return bad


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """A named pool of problems with the executor and checks that go with it.

    `prepare(problems, workdir)` runs during set-up and returns the prepared
    inputs; `execute(prepared_item)` is the only thing timed per problem and
    returns the raw answer; `check(problems, answers)` returns one failure
    reason (or None) per problem.
    """

    name = ""

    def pool(self, seed, smoke=False):
        """The seed's problems in issue order; with `smoke`, a short prefix."""
        raise NotImplementedError

    def prepare(self, problems, workdir):
        raise NotImplementedError

    def warmup(self, workdir):
        """Prepared, untimed problems outside every pool that fill lazy caches."""
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def answer_of(self, raw):
        """The raw result as a JSON value, compared with stored references."""
        return raw

    def check(self, problems, answers):
        raise NotImplementedError


class SmallBatch(Workload):
    name = "small-batch"

    def pool(self, seed, smoke=False):
        problems = small_batch_pool(seed)
        return problems[:2 * len(SMALL_PARTS)] if smoke else problems

    def prepare(self, problems, workdir):
        paths = []
        for i, (_, obj) in enumerate(problems):
            path = workdir / f"p{i:05d}.json"
            write_in_place(path, json.dumps(obj))
            paths.append(str(path))
        return paths

    def warmup(self, workdir):
        # one problem per part, each outside its part's pool (singleton and
        # single-point supports are never drawn for the timed problems)
        probs = [
            {"group": {"gl": [3], "torus": 0}, "face": {"blocks": [[1, 2]]},
             "lambda_H": {"offset": [0, 0], "basis": [[1, 0]]}, "mode": "general",
             "supports": [[[0, 0, 0]]] * 3},
            {"group": {"gl": [3], "torus": 0}, "face": {"blocks": [[1, 2]]},
             "lambda_H": {"offset": [0, 0], "basis": [[2, 0]]}, "mode": "general",
             "supports": [[[0, 0, 0]]] * 3},
            {"group": {"gl": [], "torus": 2}, "supports": [[[0, 0]], [[1, 1]]]},
            {"group": {"gl": [2], "torus": 0}, "mode": "general",
             "lambda_H": {"offset": [0, 0], "basis": []}, "supports": [[[70, 0]]]},
            {"group": {"gl": [3], "torus": 0}, "mode": "general",
             "lambda_H": {"offset": [0, 0, 0], "basis": []},
             "supports": [[[5, 0, 0]], [[5, 5, 0]], [[6, 1, 0]]]},
            {"group": {"gl": [2], "torus": 0}, "supports": [[[5, 0], [4, 4]]] * 3},
        ]
        (workdir / "warmup").mkdir(exist_ok=True)
        return self.prepare([("warmup", p) for p in probs], workdir / "warmup")

    def execute(self, path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["index", path])
        return code, out.getvalue()

    def answer_of(self, raw):
        code, text = raw
        if code != 0:
            return None
        payload = json.loads(text)
        return [payload["index"], payload["routes"]]

    def check(self, problems, answers):
        out = []
        for (_, obj), ans in zip(problems, answers):
            if ans is None:
                out.append("nonzero exit")
                continue
            index, routes = ans
            reported = [v for v in routes.values() if v is not None]
            if any(v != index for v in reported):
                out.append(f"routes disagree: {routes}")
                continue
            expected = small_batch_closed_form(obj)
            if expected is not None and int(index) != expected:
                out.append(f"closed form says {expected}, got {index}")
                continue
            out.append(None)
        return out


class Gl3Lift(Workload):
    name = "gl3-lift"

    def pool(self, seed, smoke=False):
        problems = gl3_lift_pool(seed)
        return problems[:2] if smoke else problems

    @staticmethod
    def _build(problem):
        blocks, supports = problem
        group = horoindex.GroupDescriptor((3,))
        space = horoindex.HorosphericalSpace.quotient(
            horoindex.ChamberFace(group, (tuple(blocks),)))
        return space, [horoindex.SupportSet(space, tuple(tuple(p) for p in s))
                       for s in supports]

    def prepare(self, problems, workdir):
        return [self._build(p) for p in problems]

    def warmup(self, workdir):
        # single-point supports: never in the pool, but they build both faces'
        # Weyl restrictions and the GT fibers over the support points
        pts = _dominant_points(2, 2)
        return [self._build((list(blocks), [[list(pts[i])] for i in range(j, j + 4)]))
                for blocks in LIFT_FACES for j in (0, 2)]

    def execute(self, item):
        space, supports = item
        return spaces.index_report(space, supports)

    def answer_of(self, report):
        return [str(report.index), str(report.integral_route), str(report.lift_route)]

    def check(self, problems, answers):
        out = []
        for ans in answers:
            if ans is None:
                out.append("raised")
            elif not (ans[0] == ans[1] == ans[2]) or int(ans[0]) < 0:
                out.append(f"routes disagree: {ans}")
            else:
                out.append(None)
        return out


class HilbertSeries(Workload):
    name = "hilbert-series"

    def pool(self, seed, smoke=False):
        series = hilbert_series_pool(seed)
        if smoke:  # one series per face, cut to the shortest checkable length
            series = series[:len(HILBERT_FACES)]
            series = [(fi, s, _hilbert_space(*HILBERT_FACES[fi]).dims[0] + 1)
                      for fi, s, _ in series]
        return hilbert_calls(series, seed)

    def prepare(self, problems, workdir):
        spaces = [_hilbert_space(*f) for f in HILBERT_FACES]
        supports = {}
        out = []
        for fi, support, k in problems:
            key = (fi, tuple(map(tuple, support)))
            if key not in supports:
                supports[key] = horoindex.SupportSet(spaces[fi], key[1])
            out.append((spaces[fi], supports[key], k))
        return out

    def warmup(self, workdir):
        # one-point supports, never in the pool (those are full-dimensional)
        out = []
        for face in HILBERT_FACES:
            space = _hilbert_space(*face)
            point = horoindex.SupportSet(space, ((0,) * space.face.dim,))
            out.extend((space, point, k) for k in (0, 1))
        return out

    def execute(self, item):
        space, support, k = item
        return spaces.hilbert_function(space, support, k)

    def check(self, problems, answers):
        bad = hilbert_series_check(problems, answers)
        return [("no answer" if a is None else "finite difference" if b else None)
                for a, b in zip(answers, bad)]


WORKLOADS = {w.name: w for w in (SmallBatch(), Gl3Lift(), HilbertSeries())}
