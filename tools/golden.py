"""Byte-identity check of the wcreg command line.

    python3 tools/golden.py OUT

runs every line of `COMMANDS` through `wcreg.cli.main` in this process,
with wcreg from the `src/` next to this tool's directory.  Each line runs
in its own working directory OUT/<name>, so every path it sees or prints is
relative, and leaves its CSV files under OUT/<name>/out and its exit code,
whether it made that directory, its stdout and its stderr in
OUT/<name>/status.txt.  The sha256 of each file goes into OUT/MANIFEST.sha256
after a line naming the numpy version.  The tool lists each file whose
digest differs between `golden.sha256` (A) and this capture (B) or that one
side lacks, prints their count, and exits 1 if there are any;
`tests/test_golden.py` runs the same check.

`golden.sha256` is the manifest of the current tree.  A change that alters
an output on purpose lists the files it alters and refreshes the manifest
in the same commit:

    python3 tools/golden.py OUT; cp OUT/MANIFEST.sha256 tools/golden.sha256

To see a parent commit's actual files, run that checkout's own tool (for
example in a `git worktree`) into a second directory and `diff -r` the two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np


def _grid_file(xs) -> str:
    return "".join(f"{x!r},{x * x / 2!r}\n" for x in xs)


#: files written into every working directory: grid inputs for
#: `differentiate --input` (data of u(x) = x) and a config file for `--config`
FILES = {
    # upper-case header, comment lines with and without `=`, one indented
    "input.csv": "# g(x) = x^2/2 on 11 nodes\nX,Value\n  # indented note\n"
                 + _grid_file(k / 10 for k in range(11)),
    "one-row.csv": "x,value\n" + _grid_file([0.0]),
    "uneven.csv": "x,value\n" + _grid_file([0.0, 0.25, 1.0]),
    # spacing 1/3, above the longest admissible step 1/4
    "four.csv": "x,value\n" + _grid_file(k / 3 for k in range(4)),
    "ragged.csv": "x,value\n0,0\n0.5,0.125,1\n1,0.5\n",
    "wide.csv": "x,value\n0,0,1\n0.5,0.125,1\n1,0.5,1\n",
    "cell.csv": "x,value\n0,0\n0.5,abc\n1,0.5\n",
    "config.txt": "seed = 4\ndeltas = 1e-2,1e-3\na = 1.5\nm = 2\ncount = 12\ngrid = 201\n",
    # its second line has no `=`
    "no-equals.txt": "seed = 4\ncount 12\n",
}

#: (name, arguments after `wcreg`); every line writes into ./out
COMMANDS = (
    # differentiate: builtin truths, noise models, explicit grid, input file
    ("diff-default", "differentiate --delta 1e-3"),
    ("diff-sine-alt", "differentiate --truth sine(2) --noise alternating --grid 301 --delta 1e-4"),
    ("diff-abs-none", "differentiate --truth abs-shift --noise none --a 1.5 --m 2 --delta 1e-2"),
    # a reconstruction.csv of 2,501 rows, written in three blocks
    ("diff-grid-blocks", "differentiate --delta 1e-3 --grid 2501"),
    ("diff-input", "differentiate --input input.csv --delta 1e-3"),
    # with an input file the flags that make synthetic data are ignored
    ("diff-input-ignored", "differentiate --input input.csv --delta 1e-3 --noise pink --seed -1"),
    # sweep: Holder class rescaled truth, all noise spellings, config file
    ("sweep-default", "sweep --deltas 1e-2,1e-3,1e-4"),
    # the benchmark's line: sweep reads no --count, and warns that it ignores it
    ("sweep-seed3", "sweep --deltas 1e-2,1e-3,1e-4,1e-5 --a 2 --m 1 --count 20 --seed 3"),
    ("sweep-a13-alt", "sweep --deltas 1e-2,1e-3 --a 1.3 --noise alternating-worst-case "
                      "--truth sine(1) --grid 201"),
    ("sweep-none", "sweep --deltas 1e-1,1e-2 --noise none --truth constant --grid 101"),
    # the config file's `count = 12` is ignored without a warning
    ("sweep-config", "sweep --config config.txt --noise uniform"),
    ("sweep-grid3x", "sweep --deltas 1e-2,1e-3,1e-4 --grid 1923"),
    # no --count: the same file as with any count
    ("sweep-count-default", "sweep --deltas 1e-2,1e-3"),
    # alternating noise puts the truth's misfit at exactly delta, on the edge
    # of the feasible set; the ignored --count 100 changes no byte
    ("sweep-alt-count100", "sweep --deltas 1e-2,1e-3 --noise alternating --count 100 --grid 201"),
    # a count that was once refused is ignored like any other
    ("sweep-count-ignored", "sweep --deltas 1e-2,1e-3 --count 0"),
    # one distinct delta: no log-log slope to fit
    ("sweep-repeated-delta", "sweep --deltas 1e-2,1e-2 --grid 21"),
    # adversary: sup (sine pairs) and lip (bump pairs), default and fixed grids
    ("adv-sup", "adversary --class sup --m 1 --deltas 1e-1,2e-2"),
    ("adv-sup-grid", "adversary --class sup --m 2 --deltas 1e-1 --grid 801"),
    ("adv-lip", "adversary --class lip --m 1 --deltas 1e-2,1e-4,1e-6"),
    ("adv-lip-grid", "adversary --class lip --m 1.5 --deltas 1e-2,1e-3 --grid 301"),
    ("adv-lip-clipped", "adversary --class lip --m 1 --deltas 1 --grid 21"),
    # the sine resolution rule at its boundary: k = 32 needs 20k + 1 = 641 nodes
    ("adv-sup-edge", "adversary --class sup --m 1 --deltas 1e-2 --grid 641"),
    # a command checks no rule of a field it does not read: only warnings here
    ("adv-ignores-var-flags", "adversary --class lip --m 1 --deltas 1e-2 --phi l2 --c 0"),
    # variational: sup and Holder phi over the trapezoid operator
    ("var-sup", "variational --phi sup-norm --c 2 --deltas 1e-1,1e-2"),
    ("var-holder-a2", "variational --phi holder-norm --a 2 --c 3 --deltas 1e-1,1e-2 "
                      "--grid 61"),
    ("var-holder-a1", "variational --phi holder-norm --a 1 --c 2 --deltas 1e-1 "
                      "--grid 41 --noise alternating"),
    ("var-holder-a05", "variational --phi holder-norm --a 0.5 --c 3 --deltas 1e-1 "
                       "--grid 41 --seed 2"),
    # the slope path at quotient power 0.5, on the default grid
    ("var-holder-a15", "variational --phi holder-norm --a 1.5 --c 3 --deltas 1e-1,1e-2"),
    # the benchmark's solve size: 401 nodes, Holder a = 2
    ("var-holder-a2-401", "variational --phi holder-norm --a 2 --c 3 --deltas 1e-2 "
                          "--grid 401"),
    # the polynomial start probes on small grids: degrees 1-3 at 5 nodes,
    # all four (1, 2, 3, 5) at 7
    ("var-holder-a2-grid5", "variational --phi holder-norm --a 2 --c 3 --deltas 1e-1,5e-2 "
                            "--grid 5"),
    # the best start probe stays above 2(1+phi(u))delta at the two smallest
    # deltas, with a warning for each
    ("var-holder-a1-descent", "variational --truth abs-shift --phi holder-norm --a 1 --c 10 "
                              "--grid 201 --deltas 1e-1,1e-2,1e-3,1e-4"),
    ("var-holder-a2-grid7", "variational --phi holder-norm --a 2 --c 3 --deltas 1e-1,5e-2 "
                            "--grid 7"),
    # a sup-norm class ignores --a, even one out of range
    ("var-sup-a-ignored", "variational --phi sup-norm --a 3 --c 2 --deltas 1e-1 --grid 41"),
    # variational reads no --count either: a warning, and the file of no flag
    ("var-count-ignored", "variational --count 0 --c 2 --deltas 1e-2"),
    # modulus: brute force over sup and Holder lattices
    ("mod-sup", "modulus --phi sup-norm --c 1 --levels 7 --deltas 0.5,0.1"),
    ("mod-sup-const", "modulus --phi sup-norm --c 1 --levels 21 --lattice-nodes 5 "
                      "--constants-only true --deltas 0.05,0.35,2.5"),
    ("mod-holder-a1", "modulus --phi holder-norm --a 1 --c 2 --levels 7 --lattice-nodes 4 "
                      "--deltas 0.5,0.1"),
    ("mod-holder-a2", "modulus --phi holder-norm --a 2 --c 3 --levels 9 --deltas 0.5"),
    # a 2-node Holder lattice at a = 2: one slope per member, seminorm 0
    ("mod-holder-a2-2nodes", "modulus --lattice-nodes 2 --phi holder-norm --a 2 --c 2 "
                             "--levels 5 --deltas 0.5"),
    # narrow sort-key windows: the benchmark's lattice shape, and a Holder lattice
    ("mod-sup-narrow", "modulus --phi sup-norm --c 1 --lattice-nodes 4 --levels 8 "
                       "--deltas 1e-2,1e-3"),
    ("mod-bench-flags", "modulus --phi sup-norm --c 1 --mode bruteforce --lattice-nodes 4 "
                        "--levels 8 --deltas 1e-2,1e-3"),
    ("mod-holder-a05", "modulus --phi holder-norm --a 0.5 --c 1 --lattice-nodes 4 "
                       "--levels 21 --deltas 1,0.1,0.01"),
    # one scan for all deltas: unsorted with a duplicate, and a wide delta
    # next to a narrow one on the default lattice
    ("mod-unsorted-dup", "modulus --lattice-nodes 4 --levels 8 --deltas 1e-3,0.5,1e-2,0.5"),
    ("mod-wide-narrow", "modulus --deltas 0.5,1e-3"),
    # one level: the lattice has a single member, and omega is 0 at every delta
    ("mod-one-member", "modulus --levels 1 --deltas 0.5,0.1"),
    # rejected command lines: exit 2 (configuration) and 3 (runtime)
    ("bad-no-delta", "differentiate"),
    ("bad-diff-a", "differentiate --delta 1e-3 --a 1"),
    ("bad-diff-a-range", "differentiate --delta 1e-3 --a 3"),
    ("bad-diff-m", "differentiate --delta 1e-3 --m 0"),
    ("bad-input-missing", "differentiate --delta 1e-3 --input missing.csv"),
    ("bad-input-header", "differentiate --delta 1e-3 --input config.txt"),
    ("bad-input-rows", "differentiate --delta 1e-3 --input one-row.csv"),
    ("bad-input-uneven", "differentiate --delta 1e-3 --input uneven.csv"),
    ("bad-input-ragged", "differentiate --delta 1e-3 --input ragged.csv"),
    ("bad-input-wide", "differentiate --delta 1e-3 --input wide.csv"),
    ("bad-input-cell", "differentiate --delta 1e-3 --input cell.csv"),
    ("bad-input-coarse", "differentiate --delta 1e-3 --input four.csv"),
    ("bad-sweep-one-delta", "sweep --deltas 1e-2"),
    ("bad-sweep-a", "sweep --deltas 1e-2,1e-3 --a 0.5"),
    ("bad-sweep-m", "sweep --deltas 1e-2,1e-3 --m -1"),
    ("bad-sweep-seed", "sweep --deltas 1e-2,1e-3 --seed -1"),
    ("bad-noise", "sweep --deltas 1e-2,1e-3 --noise pink"),
    ("bad-grid", "sweep --deltas 1e-2,1e-3 --grid 3"),
    ("bad-class", "adversary --class holder --deltas 1e-2"),
    ("bad-adv-m", "adversary --class lip --m 0 --deltas 1e-2"),
    ("bad-sup-coarse", "adversary --class sup --deltas 1e-3 --grid 11"),
    ("bad-adv-sup-coarse", "adversary --class sup --m 1 --deltas 1e-2 --grid 640"),
    # extreme but finite bounds: the sine frequency overflows, the bump height underflows
    ("bad-adv-sup-overflow", "adversary --class sup --m 1e300 --deltas 1e-300"),
    ("bad-adv-lip-underflow", "adversary --class lip --m 1e-300 --deltas 1e-300"),
    ("bad-var-phi", "variational --phi l2 --deltas 1e-2"),
    ("bad-var-c", "variational --c 0 --deltas 1e-2"),
    ("bad-var-budget", "variational --budget -1 --deltas 1e-2"),
    ("bad-var-class", "variational --c 0.5 --deltas 1e-2"),
    ("bad-var-a-range", "variational --phi holder-norm --a 3 --deltas 1e-2"),
    ("bad-mod-phi", "modulus --phi l2 --deltas 0.5"),
    ("bad-mod-c", "modulus --c -1 --deltas 0.5"),
    ("bad-mod-mode", "modulus --mode exact --deltas 0.5"),
    ("mod-search", "modulus --phi holder-norm --a 2 --c 3 --levels 9 --mode search "
                   "--seed 3 --deltas 0.5,0.1"),
    ("mod-search-sup", "modulus --phi sup-norm --mode search --deltas 0.3"),
    ("bad-mod-levels", "modulus --levels 0 --deltas 0.5"),
    ("bad-mod-nodes", "modulus --lattice-nodes 1 --deltas 0.5"),
    ("bad-mod-budget", "modulus --mode search --budget 0 --deltas 0.5"),
    ("bad-mod-guard", "modulus --levels 41 --lattice-nodes 4 --deltas 0.5"),
    ("bad-delta", "modulus --deltas 0.5,-1"),
    ("bad-flag-type", "sweep --deltas 1e-2,1e-3 --grid many"),
    ("bad-config-missing", "sweep --deltas 1e-2,1e-3 --config missing.txt"),
    ("bad-config-line", "sweep --deltas 1e-2,1e-3 --config no-equals.txt"),
    # infinite bounds pass the sign rules and are rejected after them
    ("bad-diff-delta-inf", "differentiate --delta inf"),
    ("bad-diff-m-inf", "differentiate --delta 1e-3 --m inf"),
    ("bad-sweep-deltas-inf", "sweep --deltas inf,1e-2"),
    ("bad-sweep-m-inf", "sweep --deltas 1e-2,1e-3 --m inf"),
    ("bad-adv-m-inf", "adversary --m inf --deltas 1e-2"),
    ("bad-var-c-inf", "variational --c inf --deltas 1e-2"),
    ("bad-mod-deltas-inf", "modulus --deltas 0.5,inf"),
    # the help text on stdout, exit 0
    ("help", "--help"),
    # rejected by the argument parser itself: exit 2 after a usage line
    ("bad-command", "bogus"),
    ("bad-unknown-flag", "sweep --deltas 1e-2,1e-3 --bogus 1"),
    # several broken rules: the first one each command checks is reported
    ("bad-diff-many", "differentiate --delta 1e-3 --a 1 --m 0 --input missing.csv"),
    ("bad-adv-many", "adversary --class holder --m 0 --deltas -1"),
    ("bad-sweep-many", "sweep --deltas 1e-2,1e-3 --a 1 --m 0"),
    ("bad-var-many", "variational --c 0 --seed -1 --deltas 1e-2"),
    ("bad-mod-many", "modulus --c 0 --mode exact --levels 0 --deltas 0.5"),
)

MANIFEST = "MANIFEST.sha256"
#: the manifest of the current tree's capture
COMMITTED = Path(__file__).with_name("golden.sha256")
#: the terminal width every run sees, for the argument parser's help text
COLUMNS = "80"


def _run_here(cwd: Path, argv: list[str]) -> tuple[int, str, str]:
    """`wcreg.cli.main(argv)` in this process, inside `cwd`, with COLUMNS=80
    and stdout and stderr captured; the process's own state is restored."""
    from wcreg import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    home, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(cwd)
    os.environ["COLUMNS"] = COLUMNS
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        os.chdir(home)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, stdout.getvalue(), stderr.getvalue()


def capture(out: Path) -> None:
    """Run every line of `COMMANDS` into `out` and write its manifest."""
    out.mkdir(parents=True, exist_ok=False)
    for name, args in COMMANDS:
        cwd = out / name
        cwd.mkdir()
        for file, text in FILES.items():
            (cwd / file).write_text(text)
        code, stdout, stderr = _run_here(cwd, [*args.split(), "--out", "out"])
        made = "yes" if (cwd / "out").is_dir() else "no"
        (cwd / "status.txt").write_text(f"exit {code}\nout dir: {made}\n"
                                        f"stdout:\n{stdout}stderr:\n{stderr}")
    lines = [f"# numpy {np.__version__}"]
    lines += [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
              for p in sorted(out.rglob("*")) if p.is_file() and p.name not in FILES]
    (out / MANIFEST).write_text("\n".join(lines) + "\n")


def read_manifest(path: Path) -> tuple[str, dict[str, str]]:
    """The numpy version a manifest was made with, and its digest of each file."""
    head, *lines = path.read_text().splitlines()
    digests = {}
    for line in lines:
        digest, _, name = line.partition("  ")
        digests[name] = digest
    return head.removeprefix("# numpy "), digests


def differing(left: dict[str, str], right: dict[str, str]) -> list[str]:
    """One line for each file whose digest differs or that one side lacks."""
    return [f"{'only in A' if name not in right else 'only in B' if name not in left else 'differs'}"
            f": {name}" for name in sorted(left.keys() | right.keys())
            if left.get(name) != right.get(name)]


def check(out: Path) -> list[str]:
    """Capture into `out` (B) and return one line for each file that differs
    from `COMMITTED` (A) or that one side lacks.  When any does and A was
    made with another numpy, a last line names both versions."""
    capture(out)
    made_with, want = read_manifest(COMMITTED)
    differ = differing(want, read_manifest(out / MANIFEST)[1])
    if differ and made_with != np.__version__:
        differ.append(f"note: the manifest was made with numpy {made_with}, "
                      f"this run uses {np.__version__}")
    return differ


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    differ = check(Path(argv[0]))
    files = [line for line in differ if not line.startswith("note: ")]
    for line in differ:
        print(line)
    print(f"{len(files)} files differ from {COMMITTED.name}")
    return 1 if files else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
