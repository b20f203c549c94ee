"""Byte-identity check of the wcreg command line.

    python3 tools/golden.py capture SRC OUT   # run the fixed command list against SRC
    python3 tools/golden.py compare A B       # list the files that differ between captures

`capture` runs every command line of `COMMANDS` in its own working
directory OUT/<name>, so every path the program sees or prints is relative.
Each run leaves its CSV files under OUT/<name>/out, and its exit code,
whether it made OUT/<name>/out, its stdout and its stderr in
OUT/<name>/status.txt; the sha256 of each of these files goes into
OUT/MANIFEST.sha256, after a first line naming the numpy version.  From the
command line each run is a fresh process with PYTHONPATH=SRC; `capture(out)`
without a source tree runs them in the calling process through
`wcreg.cli.main`, with the same files as result.  `compare` reads two
manifests and exits 1 when a file differs or exists on one side only.

`golden.sha256`, next to this file, is the manifest of the current tree,
and `tests/test_golden.py` checks an in-process capture against it.  A
change that alters an output on purpose refreshes it in the same commit:

    python3 tools/golden.py capture src OUT && cp OUT/MANIFEST.sha256 tools/golden.sha256

To compare two trees, capture the parent commit's `src/` and the changed
`src/` into two fresh directories, then compare them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
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
}

#: (name, arguments after `wcreg`); every line writes into ./out
COMMANDS = (
    # differentiate: builtin truths, noise models, explicit grid, input file
    ("diff-default", "differentiate --delta 1e-3"),
    ("diff-sine-alt", "differentiate --truth sine(2) --noise alternating --grid 301 --delta 1e-4"),
    ("diff-abs-none", "differentiate --truth abs-shift --noise none --a 1.5 --m 2 --delta 1e-2"),
    ("diff-input", "differentiate --input input.csv --delta 1e-3"),
    # with an input file the flags that make synthetic data are ignored
    ("diff-input-ignored", "differentiate --input input.csv --delta 1e-3 --noise pink --seed -1"),
    # sweep: Holder class rescaled truth, all noise spellings, config file
    ("sweep-default", "sweep --deltas 1e-2,1e-3,1e-4 --count 20"),
    ("sweep-seed3", "sweep --deltas 1e-2,1e-3,1e-4,1e-5 --a 2 --m 1 --count 20 --seed 3"),
    ("sweep-a13-alt", "sweep --deltas 1e-2,1e-3 --a 1.3 --noise alternating-worst-case "
                      "--truth sine(1) --grid 201 --count 10"),
    ("sweep-none", "sweep --deltas 1e-1,1e-2 --noise none --truth constant --grid 101 --count 10"),
    ("sweep-config", "sweep --config config.txt --noise uniform"),
    ("sweep-grid3x", "sweep --deltas 1e-2,1e-3,1e-4 --count 20 --grid 1923"),
    # the default ensemble count (100): candidates checked in more than one round
    ("sweep-count-default", "sweep --deltas 1e-2,1e-3"),
    # one distinct delta: no log-log slope to fit
    ("sweep-repeated-delta", "sweep --deltas 1e-2,1e-2 --grid 21 --count 3"),
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
    ("var-sup", "variational --phi sup-norm --c 2 --deltas 1e-1,1e-2 --budget 150 --count 12"),
    ("var-holder-a2", "variational --phi holder-norm --a 2 --c 3 --deltas 1e-1,1e-2 "
                      "--budget 150 --count 12 --grid 61"),
    ("var-holder-a1", "variational --phi holder-norm --a 1 --c 2 --deltas 1e-1 "
                      "--budget 100 --count 8 --grid 41 --noise alternating"),
    ("var-holder-a05", "variational --phi holder-norm --a 0.5 --c 3 --deltas 1e-1 "
                       "--budget 100 --count 8 --grid 41 --seed 2"),
    # the slope path at quotient power 0.5, on the default grid
    ("var-holder-a15", "variational --phi holder-norm --a 1.5 --c 3 --deltas 1e-1,1e-2 "
                       "--budget 60 --count 8"),
    # the benchmark's solve size: 401 nodes, Holder a = 2
    ("var-holder-a2-401", "variational --phi holder-norm --a 2 --c 3 --deltas 1e-2 "
                          "--budget 60 --count 8 --grid 401"),
    # the polynomial start probes on small grids: degrees 1-3 at 5 nodes,
    # all four (1, 2, 3, 5) at 7
    ("var-holder-a2-grid5", "variational --phi holder-norm --a 2 --c 3 --deltas 1e-1,5e-2 "
                            "--budget 20 --count 4 --grid 5"),
    # the only line whose descent runs past its start probes; F stays above
    # 2(1+phi(u))delta at the two smallest deltas, with a warning for each
    ("var-holder-a1-descent", "variational --truth abs-shift --phi holder-norm --a 1 --c 10 "
                              "--grid 201 --deltas 1e-1,1e-2,1e-3,1e-4 --budget 100 --count 4"),
    ("var-holder-a2-grid7", "variational --phi holder-norm --a 2 --c 3 --deltas 1e-1,5e-2 "
                            "--budget 20 --count 4 --grid 7"),
    # a sup-norm class ignores --a, even one out of range
    ("var-sup-a-ignored", "variational --phi sup-norm --a 3 --c 2 --deltas 1e-1 --budget 20 "
                          "--count 4 --grid 41"),
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
    ("bad-sweep-count", "sweep --deltas 1e-2,1e-3 --count 0"),
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
    ("bad-var-count", "variational --count 0 --deltas 1e-2"),
    ("bad-var-class", "variational --c 0.5 --deltas 1e-2"),
    ("bad-var-a-range", "variational --phi holder-norm --a 3 --deltas 1e-2"),
    ("bad-mod-phi", "modulus --phi l2 --deltas 0.5"),
    ("bad-mod-c", "modulus --c -1 --deltas 0.5"),
    ("bad-mod-mode", "modulus --mode exact --deltas 0.5"),
    ("mod-search", "modulus --phi holder-norm --a 2 --c 3 --levels 9 --mode search "
                   "--budget 400 --seed 3 --deltas 0.5,0.1"),
    ("mod-search-sup", "modulus --phi sup-norm --mode search --budget 300 --deltas 0.3"),
    ("bad-mod-levels", "modulus --levels 0 --deltas 0.5"),
    ("bad-mod-nodes", "modulus --lattice-nodes 1 --deltas 0.5"),
    ("bad-mod-budget", "modulus --mode search --budget 0 --deltas 0.5"),
    ("bad-mod-guard", "modulus --levels 41 --lattice-nodes 4 --deltas 0.5"),
    ("bad-delta", "modulus --deltas 0.5,-1"),
    ("bad-flag-type", "sweep --deltas 1e-2,1e-3 --grid many"),
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
    ("bad-sweep-many", "sweep --deltas 1e-2,1e-3 --a 1 --m 0 --count 0"),
    ("bad-var-many", "variational --c 0 --budget -1 --count 0 --deltas 1e-2"),
    ("bad-mod-many", "modulus --c 0 --mode exact --levels 0 --deltas 0.5"),
)

MANIFEST = "MANIFEST.sha256"
#: the manifest of the current tree's capture
COMMITTED = Path(__file__).with_name("golden.sha256")
#: the environment of a run in its own process: one BLAS thread, fixed
#: hashing, 80 columns; a run in this process sets only COLUMNS
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONHASHSEED": "0", "COLUMNS": "80"}


def _run_process(src: Path, cwd: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **ENV)
    proc = subprocess.run([sys.executable, "-m", "wcreg.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _run_here(cwd: Path, argv: list[str]) -> tuple[int, str, str]:
    """`wcreg.cli.main(argv)` in this process, inside `cwd`, with COLUMNS=80
    and stdout and stderr captured; the process's own state is restored."""
    from wcreg import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    home, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(cwd)
    os.environ["COLUMNS"] = ENV["COLUMNS"]
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


def capture(out: Path, src: Path | None = None) -> None:
    """Run every line of `COMMANDS` into `out`: one process per line with
    PYTHONPATH=src, or, without `src`, in this process."""
    out.mkdir(parents=True, exist_ok=False)
    for name, args in COMMANDS:
        cwd = out / name
        cwd.mkdir()
        for file, text in FILES.items():
            (cwd / file).write_text(text)
        argv = [*args.split(), "--out", "out"]
        code, stdout, stderr = (_run_here(cwd, argv) if src is None
                                else _run_process(src, cwd, argv))
        made = "yes" if (cwd / "out").is_dir() else "no"
        (cwd / "status.txt").write_text(f"exit {code}\nout dir: {made}\n"
                                        f"stdout:\n{stdout}stderr:\n{stderr}")
        print(f"{name}: exit {code}", flush=True)
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


def compare(a: Path, b: Path) -> int:
    left, right = read_manifest(a / MANIFEST)[1], read_manifest(b / MANIFEST)[1]
    differ = differing(left, right)
    for line in differ:
        print(line)
    print(f"{len(left.keys() | right.keys())} files compared, {len(differ)} differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("capture", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "capture":
        capture(Path(argv[2]), Path(argv[1]))
        return 0
    return compare(Path(argv[1]), Path(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
