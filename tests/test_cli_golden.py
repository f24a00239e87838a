"""CLI stdout pinned byte for byte.

Each case runs one verb in-process and compares its stdout with the text in
`tests/golden/<case>.out`.  The problem files sit next to them: a GL(3) full
chamber, GL(2) x T^1 and a general-mode wall face of GL(3) with a
non-standard Lambda(H).  The `gc` cases print the Gelfand-Tsetlin polytope
of a regular and of a wall weight of GL(3).  The `mixed-volume` and
`mixed-integral` cases take body systems with rational vertices and a
segment among the bodies: on the standard lattice of the plane, on an
index-2 lattice of the plane, and on a rank-2 lattice in 3-space, whose
bodies are lower-dimensional there; each polynomial has several
monomials.  To capture the expected text again, run
`PYTHONPATH=src python tests/test_cli_golden.py --write`; a change of output
is then a reviewed diff of the `.out` files.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from horoindex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "gl3-hilbert": ["hilbert", "gl3.json", "--k", "5"],
    "gl3-completion": ["completion", "gl3.json"],
    "gl3-index": ["index", "gl3.json"],
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
    "mixed-volume-rational": ["mixed-volume", "volume_rational.json"],
    "mixed-volume-index2": ["mixed-volume", "volume_index2.json"],
    "mixed-volume-plane": ["mixed-volume", "volume_plane.json"],
    "mixed-integral-rational": ["mixed-integral", "integral_rational.json"],
    "mixed-integral-index2": ["mixed-integral", "integral_index2.json"],
    "mixed-integral-plane": ["mixed-integral", "integral_plane.json"],
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


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.out").write_text(run_case(argv))
