"""CLI fuzz gate: argv drawn from a grammar of every subcommand and flag.

Whatever the argv, ``cli.run`` in process must return exit code 0, 1 or 2
and never raise, ``SystemExit`` included.  A rejection (exit 1) must write
nothing to stdout and exactly one ``amigram: error:`` line to stderr; exits
0 and 2 write nothing to stderr.  Every line a JSON listing writes to stdout is
the text ``json.dumps`` gives for what ``json.loads`` reads from it.

Values are valid, 0, negative, loose text or 5000 digits, and a flag may be
missing or given twice.  Huge values are drawn only where the work does not
grow with them (``check``, ``witness``, ``render``, and ``family --from``,
whose ``--to`` stays small, so a huge start is an empty range, and
``--threads``, which every subcommand checks and then ignores); grid sizes
stay at 60 or less.
"""

import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import amigram.cli as cli

LOOSE = st.sampled_from(
    ["+4", " 4", "4 ", "4_2", "4.0", "1e3", "0x8", "٤", "", "-", "four", "--4"]
)
HUGE = st.sampled_from(["9" * 5000, "1" + "0" * 4999, "-" + "7" * 5000])
# Stand-ins for -o paths, filled in per run: a writable file, a file in a
# missing directory, and a directory.
OUTPUTS = st.sampled_from(["{file}", "{missing}/out.txt", "{dir}"])


def values(valid: st.SearchStrategy[int], huge: bool = False) -> st.SearchStrategy[str]:
    # Valid values are drawn most often, or few runs would get past parsing.
    kinds = [valid.map(str)] * 8 + [
        st.just("0"),
        st.integers(1, 10**6).map(lambda n: f"-{n}"),
        LOOSE,
    ]
    if huge:
        kinds.append(HUGE)
    return st.sampled_from(kinds).flatmap(lambda kind: kind)


SIZE = st.integers(1, 100)
PERIMETER = st.integers(2, 30).map(lambda half: 2 * half)  # 4..60, even
INDEX = st.integers(4, 60)

# Each flag maps to the strategy for its value (None for a flag that takes
# none) and to how many times it is given, drawn from one of these lists:
# a required flag is mostly given once, an optional one is left out half
# the time, and either may be missing or given twice.  -h is rare.
REQUIRED = [0, 1, 1, 1, 1, 1, 1, 2]
OPTIONAL = [0, 0, 0, 1, 1, 2]
RARE = [0] * 15 + [1]

COMMON = {
    "-o": (OUTPUTS, OPTIONAL),
    "--threads": (values(SIZE, huge=True), OPTIONAL),
    "-h": (None, RARE),
}
SUBCOMMANDS = {
    "check": {
        "--area": (values(SIZE, huge=True), REQUIRED),
        "--perimeter": (values(PERIMETER, huge=True), OPTIONAL),
        "--base": (values(SIZE, huge=True), OPTIONAL),
        "--side": (values(SIZE, huge=True), OPTIONAL),
    },
    "family": {
        "--from": (values(INDEX, huge=True), REQUIRED),
        "--to": (values(INDEX), REQUIRED),
    },
    "verify": {"--max-perimeter": (values(PERIMETER), REQUIRED)},
    "enumerate": {
        "--perimeter": (values(PERIMETER), REQUIRED),
        "--amicable-only": (None, OPTIONAL),
        "--format": (st.sampled_from(["csv", "jsonl", "xml", ""]), OPTIONAL),
    },
    "census": {"--max-perimeter": (values(PERIMETER), REQUIRED)},
    "rectangles": {},
    "witness": {
        "--area": (values(SIZE, huge=True), OPTIONAL),
        "--perimeter": (values(PERIMETER, huge=True), OPTIONAL),
    },
    "render": {
        "--base": (values(SIZE, huge=True), REQUIRED),
        "--side": (values(SIZE, huge=True), REQUIRED),
        "--area": (values(SIZE, huge=True), REQUIRED),
        "--companion": (None, OPTIONAL),
        "--width": (values(st.integers(1, 2000), huge=True), OPTIONAL),
        "--height": (values(st.integers(1, 2000), huge=True), OPTIONAL),
        "--margin": (values(SIZE, huge=True), OPTIONAL),
    },
}


JSON_COMMANDS = {"check", "family", "rectangles", "witness"}


def writes_json(argv: list[str]) -> bool:
    """Whether stdout holds JSON lines, given that argv was accepted."""
    if not argv or "-h" in argv:
        return False
    if argv[0] == "enumerate":
        formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
        return formats[-1:] == ["jsonl"]
    return argv[0] in JSON_COMMANDS


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from([*SUBCOMMANDS, "bogus", None]))
    grammar = {**SUBCOMMANDS.get(command, {}), **COMMON}
    groups = []
    for name, (value, times) in grammar.items():
        for _ in range(draw(st.sampled_from(times))):
            groups.append([name] if value is None else [name, draw(value)])
    groups = draw(st.permutations(groups))
    head = [] if command is None else [command]
    return head + [token for group in groups for token in group]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {"file": str(root / "out.txt"), "missing": str(root / "missing"), "dir": str(root)}


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argv=argvs())
# One accepted argv of each JSON listing, so every run checks their lines.
@example(argv=["check", "--base", "9" * 5000, "--side", "9" * 5000, "--area", "8" * 5000])
@example(argv=["family", "--from", "4", "--to", "30"])
@example(argv=["enumerate", "--perimeter", "26", "--format", "jsonl"])
@example(argv=["rectangles"])
@example(argv=["witness", "--perimeter", "26"])
def test_any_argv_exits_cleanly(outputs, argv):
    argv = [token.format(**outputs) for token in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout, stderr)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("amigram: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
        if writes_json(argv):
            for line in out.splitlines():
                assert json.dumps(json.loads(line)) == line, argv
