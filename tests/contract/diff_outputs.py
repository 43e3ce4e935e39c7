"""Run the CLI argv corpus in two trees and report every output that differs.

    python tests/contract/diff_outputs.py OLD_TREE NEW_TREE [--expect FILE]

A tree is the root of a checkout.  An older one can be had without a
worktree by ``git archive <rev> | tar -x -C <dir>``.

Each line of ``argvs.txt`` runs in both trees as ``python -m amigram``, with
``PYTHONPATH=<tree>/src`` and ``COLUMNS=80``, in a temporary directory of
its tree's own, where ``{file}``, ``{missing}`` and ``{dir}`` are
``out.txt``, ``missing`` and ``.``.  The CLI lays out ``-h`` 78 columns
wide whatever ``COLUMNS`` says, but an older tree on either side sizes it
to the terminal, and ``COLUMNS=80`` gives that tree the same 78 columns.
Bytecode goes under a temporary ``PYTHONPYCACHEPREFIX``, so nothing is
written into either tree.  A run is its exit code, its stderr, the sha256
of its stdout and the contents of its ``{file}`` output.  Every argv whose
runs differ is printed, and the exit status is 1 unless FILE names each of
them, one argv a line in ``argvs.txt``'s form.

Then the two trees' public APIs, each rendered under its tree's ``src`` by
``tests/test_api_surface.py`` beside this script, are printed as a unified
diff.  The API diff does not change the exit status.

Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "argvs.txt"
EMPTY = "(empty)"  # the corpus line that stands for the argv with no argument
# The placeholders, relative to the directory each run starts in.
PLACES = {"file": "out.txt", "missing": "missing", "dir": "."}
# Prints the public API of the amigram on PYTHONPATH, as the snapshot test
# renders it.
SURFACE = f"""
import sys
sys.path.insert(0, {str(HERE.parent)!r})
import test_api_surface
sys.stdout.write(test_api_surface.surface())
"""


def read_argvs(path: Path = CORPUS) -> list[list[str]]:
    """The argvs of a corpus file, in its order."""
    argvs = []
    for line in path.read_text().splitlines():
        if line.strip() == EMPTY:
            argvs.append([])
        elif tokens := shlex.split(line, comments=True):
            argvs.append(tokens)
    return argvs


def fill(argv: list[str], places: dict[str, str]) -> list[str]:
    """argv with its placeholders replaced by ``places``' paths."""
    return [token.format(**places) for token in argv]


def show(argv: list[str]) -> str:
    return shlex.join(argv) or EMPTY


class Tree:
    """One tree's runs, each in the same temporary directory."""

    def __init__(self, root: Path, workdir: Path, cache: Path):
        self.src = root.resolve() / "src"
        self.cwd = workdir
        # Bytecode is written, under the prefix, whatever the caller's
        # environment says: compiling the package on every run would cost
        # more than the run.
        environ = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = {
            **environ,
            "PYTHONPATH": str(self.src),
            "COLUMNS": "80",
            "PYTHONPYCACHEPREFIX": str(cache),
        }

    def python(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.cwd, env=self.env, capture_output=True
        )

    def run(self, argv: list[str]) -> tuple[int, bytes, str, str | None]:
        """Exit code, stderr, stdout's sha256 and the {file} output's sha256."""
        output = self.cwd / PLACES["file"]
        output.unlink(missing_ok=True)
        result = self.python(["-m", "amigram", *fill(argv, PLACES)])
        written = hashlib.sha256(output.read_bytes()).hexdigest() if output.exists() else None
        return result.returncode, result.stderr, hashlib.sha256(result.stdout).hexdigest(), written

    def surface(self) -> list[str]:
        result = self.python(["-c", SURFACE])
        if result.returncode:
            sys.exit(f"cannot render the API of {self.src}:\n{result.stderr.decode()}")
        return result.stdout.decode().splitlines(keepends=True)


FIELDS = ("exit code", "stderr", "stdout sha256", "{file} sha256")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, metavar="OLD_TREE")
    parser.add_argument("new", type=Path, metavar="NEW_TREE")
    parser.add_argument("--expect", type=Path, metavar="FILE", help="argvs that may differ")
    args = parser.parse_args(argv)
    expected = {show(line) for line in read_argvs(args.expect)} if args.expect else set()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("old", "new", "cache"):
            (tmp / name).mkdir()
        old, new = (Tree(getattr(args, name), tmp / name, tmp / "cache") for name in ("old", "new"))
        argvs = read_argvs()
        unexpected = []
        for line in argvs:
            before, after = old.run(line), new.run(line)
            if before == after:
                continue
            if show(line) in expected:
                print(f"expected: {show(line)}")
            else:
                unexpected.append(line)
                print(f"DIFFERS: {show(line)}")
            for field, a, b in zip(FIELDS, before, after):
                if a != b:
                    print(f"    {field}: {a!r} -> {b!r}")
        print(f"{len(argvs)} argvs, {len(unexpected)} differ unexpectedly")
        api = difflib.unified_diff(
            old.surface(), new.surface(), f"{args.old}/api", f"{args.new}/api"
        )
        print("".join(api) or "API: no difference\n", end="")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
