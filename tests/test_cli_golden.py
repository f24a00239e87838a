"""CLI stdout pinned byte for byte.

Each case runs one verb in-process and compares its stdout with the text in
`tests/golden/<case>.out`.  The problem files sit next to them: a GL(3) full
chamber, GL(2) x T^1, a general-mode wall face of GL(3) with a
non-standard Lambda(H), and a quotient-mode system on the GL(3) wall face
(1,2) with four distinct supports of 2-3 points, whose subset sums are
plane polygons and parallel segments.  The `gc` cases print the Gelfand-Tsetlin polytope
of a regular and of a wall weight of GL(3).  The `mixed-volume` and
`mixed-integral` cases take body systems with rational vertices and a
segment among the bodies: on the standard lattice of the plane, on an
index-2 lattice of the plane, and on a rank-2 lattice in 3-space, whose
bodies are lower-dimensional there; each polynomial has several
monomials.  The 0-D and 1-D cases pin the point and segment conventions:
`gc` of GL(2) on a regular weight (a segment of volume 2) and on a wall
weight (a point of volume 1); `mixed-volume` and `mixed-integral` of a
rational segment on the rank-1 lattice spanned by (2, 1); `mixed-integral`
over two rational points on the rank-0 lattice of the plane, where each
subset sum is a point; and `moment` and `index` of the README's
general-mode Bezout problem, whose moment polytopes are segments.  To capture the expected text again, run
`PYTHONPATH=src python tests/test_cli_golden.py --write`; a change of output
is then a reviewed diff of the `.out` files.  `python tests/test_cli_golden.py
--console` runs every case through the installed `horoindex` console script
instead and exits 1, naming the first case that fails or prints other text.

The same text must come out whichever way the input spells its numbers: a
JSON int, an integral string such as "4/2", or a non-integral "p/q" string
not in lowest terms.
"""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from horoindex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "gl3-hilbert": ["hilbert", "gl3.json", "--k", "5"],
    "gl3-completion": ["completion", "gl3.json"],
    "gl3-index": ["index", "gl3.json"],
    "gl3-wall-index": ["index", "gl3_wall.json"],
    "gl3-weyl-wall": ["weyl", "--gl", "3", "--weight", "4,1,0", "--blocks", "1,2"],
    "gl3-weyl-chamber": ["weyl", "--gl", "3", "--weight", "2,2,0", "--blocks", "1,1,1"],
    "gl2-t1-hilbert": ["hilbert", "gl2_t1.json", "--k", "5"],
    "gl2-t1-completion": ["completion", "gl2_t1.json"],
    "gl2-t1-index": ["index", "gl2_t1.json"],
    "gl2-t1-weyl": ["weyl", "--gl", "2", "--torus", "1", "--weight", "3,1,-2",
                    "--blocks", "1,1"],
    "general-completion": ["completion", "general.json"],
    "general-index": ["index", "general.json"],
    "gl3-moment": ["moment", "gl3.json"],
    "gl3-newton": ["newton", "gl3.json"],
    "gc-n3-regular": ["gc", "--n", "3", "--weight", "2,1,0"],
    "gc-n3-wall": ["gc", "--n", "3", "--weight", "2,2,0"],
    "gc-n2-segment": ["gc", "--n", "2", "--weight", "3,1"],
    "gc-n2-point": ["gc", "--n", "2", "--weight", "2,2"],
    "bezout-moment": ["moment", "bezout_general.json"],
    "bezout-index": ["index", "bezout_general.json"],
    "mixed-volume-rational": ["mixed-volume", "volume_rational.json"],
    "mixed-volume-index2": ["mixed-volume", "volume_index2.json"],
    "mixed-volume-plane": ["mixed-volume", "volume_plane.json"],
    "mixed-integral-rational": ["mixed-integral", "integral_rational.json"],
    "mixed-integral-index2": ["mixed-integral", "integral_index2.json"],
    "mixed-integral-plane": ["mixed-integral", "integral_plane.json"],
    "mixed-volume-segment": ["mixed-volume", "volume_segment.json"],
    "mixed-integral-segment": ["mixed-integral", "integral_segment.json"],
    "mixed-integral-points": ["mixed-integral", "integral_points.json"],
}


def run_case(argv):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden_text(case):
    assert run_case(CASES[case]) == (GOLDEN / f"{case}.out").read_text()


def respelled(value, spell):
    """A JSON value with each number, and each string that reads as one,
    replaced by spell(its Fraction)."""
    if isinstance(value, list):
        return [respelled(v, spell) for v in value]
    if isinstance(value, dict):
        return {k: respelled(v, spell) for k, v in value.items()}
    if isinstance(value, int) and not isinstance(value, bool):
        return spell(Fraction(value))
    if isinstance(value, str):
        try:
            return spell(Fraction(value))
        except ValueError:
            return value
    return value


SPELLINGS = {
    # every number as an integral or a non-integral string not in lowest terms
    "strings": lambda q: f"{2 * q.numerator}/{2 * q.denominator}",
    # every integral number as a JSON int, the others as "p/q"
    "ints": lambda q: q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}",
}


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("case", sorted(c for c, argv in CASES.items()
                                        if any(a.endswith(".json") for a in argv)))
def test_stdout_does_not_depend_on_how_numbers_are_spelled(case, spelling, tmp_path):
    argv = []
    for a in CASES[case]:
        if a.endswith(".json"):
            obj = respelled(json.loads((GOLDEN / a).read_text()), SPELLINGS[spelling])
            (tmp_path / a).write_text(json.dumps(obj))
            a = str(tmp_path / a)
        argv.append(a)
    assert run_case(argv) == (GOLDEN / f"{case}.out").read_text()


def console_mismatch():
    """The first case, in sorted order, whose run through the installed
    `horoindex` console script exits nonzero or prints other than its `.out`
    file, or None."""
    for name, argv in sorted(CASES.items()):
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        out = subprocess.run(["horoindex", *argv], capture_output=True, text=True)
        if out.returncode or out.stdout != (GOLDEN / f"{name}.out").read_text():
            return name
    return None


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.out").write_text(run_case(argv))
elif __name__ == "__main__" and sys.argv[1:] == ["--console"]:
    mismatch = console_mismatch()
    if mismatch:
        sys.exit(f"horoindex stdout differs from tests/golden/{mismatch}.out")
    print(f"{len(CASES)} golden cases match through the horoindex console script")
