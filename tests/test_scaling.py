"""Exact scaling identities of the command line: an oracle that needs no LP.

Every certificate here is positively homogeneous.  Scale the class bound
(`--m` or `--c`) and every delta by 2**k, and every member, reconstruction,
error and bound scales by 2**k, while steps and nodes stay where they are.
A power-of-two scaling is exact in binary floating point, so each row cell
and each certificate line must match bit for bit; only a fitted log-log
slope may move, by the rounding of the fit.  A code path that holds an
absolute constant breaks the identity.
"""

import pytest

from wcreg.cli import main, read_csv_table

#: largest change of a fitted log-log slope (the fits differ in rounding only)
SLOPE_TOL = 1e-12

#: columns that stay the same under the scaling; every other cell scales
FIXED = {"h", "x"}

#: (command line with the bound {b} and deltas {d} left open, base deltas);
#: each runs at bound 1
CASES = {
    "sweep-a2": ("sweep --deltas {d} --a 2 --m {b} --grid 161", (1e-2, 1e-3, 1e-4)),
    "sweep-a1.5-alt-abs": ("sweep --deltas {d} --a 1.5 --m {b} --noise alternating "
                           "--truth abs-shift --grid 161", (1e-2, 1e-3, 1e-4)),
    "adversary-sup": ("adversary --class sup --m {b} --deltas {d}", (1e-1, 2e-2)),
    "adversary-lip": ("adversary --class lip --m {b} --deltas {d} --grid 2001", (1e-2, 1e-4)),
    "modulus-holder-3x9": ("modulus --phi holder-norm --a 0.5 --c {b} --lattice-nodes 3 "
                           "--levels 9 --deltas {d}", (0.5, 0.1)),
    "modulus-sup-4x8": ("modulus --phi sup-norm --c {b} --lattice-nodes 4 --levels 8 "
                        "--deltas {d}", (1e-1, 1e-2)),
}


def run(template, deltas, scale, out):
    argv = template.format(b=repr(scale), d=",".join(repr(scale * d) for d in deltas))
    assert main([*argv.split(), "--out", str(out)]) == 0
    return {p.name: read_csv_table(p) for p in sorted(out.iterdir())}


@pytest.mark.parametrize("k", [-1, 1])
@pytest.mark.parametrize("case", CASES)
def test_bound_and_delta_scale_together(tmp_path, case, k):
    template, deltas = CASES[case]
    scale = 2.0 ** k
    base = run(template, deltas, 1.0, tmp_path / "base")
    scaled = run(template, deltas, scale, tmp_path / "scaled")
    assert list(scaled) == list(base)
    for name, (header, rows, meta) in base.items():
        s_header, s_rows, s_meta = scaled[name]
        assert s_header == header and len(s_rows) == len(rows), name
        for row, s_row in zip(rows, s_rows):
            want = [v if col in FIXED else scale * v for col, v in zip(header, row)]
            assert s_row == want, name
        assert list(s_meta) == list(meta), name
        for key, value in meta.items():
            if key.endswith("_slope"):
                assert abs(s_meta[key] - value) <= SLOPE_TOL, (name, key)
            else:
                assert s_meta[key] == scale * value, (name, key)
