"""Property test of the stream protocol: a line answered ERR changes nothing.

Two checks make that up. Dropping the lines answered ERR leaves every other
answer as it was. And each of those lines is answered ERR again when it comes
straight after the accepted lines before it, so a rejected line cannot make
later valid ones fail.
"""

import io
import sys
from contextlib import redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from se2fusion.cli import main as cli_main  # noqa: E402


def mostly(good, bad):
    """good, or one time in ten bad."""
    return st.tuples(st.integers(0, 9), good, bad).map(lambda t: t[2] if t[0] == 0 else t[1])


# Bad fields are not finite, overflow or do not parse. A timestamp is the
# line's index plus a step of -3 to 1, times 0.05 s, so timestamps mostly
# increase but also repeat and go backwards.
BAD = st.sampled_from(["1e300", "-1e300", "nan", "inf", "x"])
NUMBERS = mostly(st.floats(-3.0, 3.0, allow_nan=False).map(repr), BAD)
STEPS = mostly(st.integers(-3, 1), BAD)
TIMED = st.tuples(st.sampled_from(["ODOM", "MEAS", "MEAS"]), STEPS, NUMBERS, NUMBERS, NUMBERS)
# a fix far enough off that its error overflows
OVERFLOW = st.tuples(st.just("MEAS"), STEPS, st.just("1e300"), NUMBERS, NUMBERS)
UNTIMED = st.one_of(
    st.tuples(st.just("PRIOR"), NUMBERS, NUMBERS, NUMBERS),
    st.just(("FLUSH",)),
    st.sampled_from(["MEAS 0.1 1 2", "ODOM", "PRIOR 1 2 3 4", "BOGUS 1 2 3", "meas 0 0 0 0"]).map(str.split),
)


def _line(index, fields):
    if len(fields) == 5 and isinstance(fields[1], int):
        fields = (fields[0], repr(0.05 * (index + fields[1]))) + fields[2:]
    return " ".join(fields)


STREAMS = st.lists(st.one_of(TIMED, TIMED, TIMED, OVERFLOW, UNTIMED), min_size=4, max_size=25).map(
    lambda lines: [_line(i, fields) for i, fields in enumerate(lines)]
)


def stream(lines):
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO("".join(line + "\n" for line in lines))
    try:
        with redirect_stdout(out):
            assert cli_main(["stream"]) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue().splitlines()


@settings(max_examples=100, deadline=None)
@given(STREAMS)
# a fix that overflows, then a valid one
@example(["PRIOR 0 0 0", "MEAS 0 0 0 0", "ODOM 0.05 1 0 0", "MEAS 0.1 1e300 0 0", "MEAS 0.2 1 0 0"])
def test_lines_answered_err_change_nothing(lines):
    out = stream(lines)
    rejected = [int(line.split()[1]) for line in out if line.startswith("ERR ")]
    kept = [line for lineno, line in enumerate(lines, start=1) if lineno not in rejected]
    assert [line for line in out if not line.startswith("ERR ")] == stream(kept)
    for lineno in rejected:
        before = [line for n, line in enumerate(lines[: lineno - 1], start=1) if n not in rejected]
        assert stream(before + [lines[lineno - 1]])[-1].startswith(f"ERR {len(before) + 1} ")
