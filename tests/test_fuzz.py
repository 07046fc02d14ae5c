"""Property-based fuzzing of the command line over sequence files and argv.

Every input either runs, exiting 0 with strict JSON on stdout, or exits 2
(validation) or 3 (truncation) with exactly one line on stderr and nothing
on stdout.  The register cap is lowered for the whole test so no fuzzed
input allocates more than a six-ion register at n_max=4, and the settings
are derandomized so the suite sees the same examples on every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionchain import register
from ionchain.cli import main

#: Largest register a fuzzed input may build: six ions at n_max=4.
FUZZ_CAP = 3**6 * 5

FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def check_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(register, "MAX_AMPLITUDES", FUZZ_CAP),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()


def mostly(valid, bad, odds: int = 4):
    """Mostly ``valid``; ``bad`` in about one draw of ``odds + 1``.

    Bounded integers lean to their ends, so the inner value 1 picks ``bad``.
    """
    return st.integers(0, odds).flatmap(lambda k: bad if k == 1 else valid)


def texts(*values: str):
    return st.sampled_from(values)


# JSON values of every type, for fields that expect something else.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e300, 10**400]),
    st.text(max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
)
number = mostly(
    st.one_of(
        st.sampled_from([0, 1, 0.0, math.pi / 2, math.pi, 2 * math.pi, -math.pi]),
        st.floats(-10, 10),
    ),
    junk,
    odds=20,
)
HALF = 1 / math.sqrt(2)
VALID_TERMS = [
    [{"level": "g", "re": 1, "im": 0}],
    [{"level": "e", "re": 1.0, "im": 0.0}],
    [{"level": "eprime", "re": 0.0, "im": 1.0}],
    [{"level": "g", "re": HALF, "im": 0.0}, {"level": "e", "re": -HALF, "im": 0.0}],
    [{"level": "g", "re": HALF, "im": 0.0}, {"level": "e", "re": 0.0, "im": HALF}],
]
term = st.fixed_dictionaries(
    {"level": mostly(texts("g", "e", "eprime"), junk), "re": number, "im": number}
)
ion_prep = mostly(
    st.sampled_from(VALID_TERMS), st.one_of(st.lists(term, max_size=2), junk), odds=20
)
step = st.fixed_dictionaries(
    {
        "kind": mostly(texts("sideband_ge", "sideband_geprime", "carrier"), junk, 20),
        "ion": mostly(st.integers(1, 3), st.one_of(st.integers(0, 5), junk), 20),
        "phi": number,
        "theta": number,
    },
    optional={"label": mostly(st.text(max_size=4), junk, 20)},
)
document = mostly(
    st.fixed_dictionaries(
        {
            "version": mostly(st.just("1"), junk, 20),
            "ions": mostly(st.lists(ion_prep, min_size=1, max_size=4), junk, 20),
            "steps": mostly(st.lists(step, max_size=6), junk, 20),
        }
    ),
    st.one_of(junk, st.fixed_dictionaries({"version": st.just("1"), "extra": junk})),
    odds=20,
)
protocol = mostly(
    texts("cluster6", "chain:2", "chain:3", "chain:5"),
    st.one_of(
        texts("chain:6", "chain:7", "chain:0", "chain:1"),
        st.text(max_size=6).map(lambda tail: "chain:" + tail),
        st.text(max_size=8),
    ),
)


# Integer spellings argparse must refuse: int() alone would read most of them.
UNPARSEABLE_INTS = ("x", "", "1.5", "1_0", " 3", "+2", "\u0663", "2e0")
# Float spellings argparse must refuse: float() alone reads them as 0.1, 0.9, 0.01.
UNPARSEABLE_FLOATS = ("1_0e-2", "\u0660.\u0669", " 0.01 ")
# Flags no subcommand has, and flags left without their value.
UNKNOWN_FLAGS = texts("--bogus", "-x", "--n-max", "--trials", "--protocol", "--full=1")


def command_options(command: str):
    """argv options for ``command``: mostly well formed, sometimes unparseable."""
    unknown = mostly(st.just([]), st.lists(UNKNOWN_FLAGS, min_size=1, max_size=2))
    if command == "emit":
        return unknown
    bad_n_max = texts("-1", "0", "1", "5", *UNPARSEABLE_INTS)
    options = [mostly(texts("2", "3", "4"), bad_n_max).map(lambda n: "--n-max=" + n)]
    if command == "run":
        options.append(mostly(texts("0.93", "1"), texts(
            "0", "1.5", "nan", "x", "", *UNPARSEABLE_FLOATS
        )).map(lambda f: "--per-pulse-fidelity=" + f))
        options.append(texts("--snapshots", "--full", "--out=-"))
    else:
        options.append(mostly(texts("1", "3"), texts("0", "-1", *UNPARSEABLE_INTS)).map(
            lambda t: "--trials=" + t
        ))
        options.append(mostly(texts("0", "7"), texts("-1", *UNPARSEABLE_INTS)).map(
            lambda s: "--seed=" + s
        ))
        options.append(mostly(texts("0", "0.01", "0.02"), texts(
            "nan", "inf", "1e308", "0.3", "-0.1", "-0.0", "-0", "x", *UNPARSEABLE_FLOATS
        )).map(lambda s: "--jitter-sigma=" + s))
    listed = st.lists(st.one_of(*options), max_size=len(options) + 1)
    return st.tuples(listed, unknown).map(lambda pair: pair[0] + pair[1])


@st.composite
def argv_cases(draw):
    command = draw(st.sampled_from(["run", "noise", "emit"]))
    argv = [command, "--protocol=" + draw(protocol)]
    return argv + draw(command_options(command))


@st.composite
def file_cases(draw):
    command = draw(st.sampled_from(["run", "noise"]))
    return command, draw(document), draw(command_options(command))


# Its third step would couple past one phonon, and that step's label holds a newline.
LEAKY_LABELLED = {
    "version": "1",
    "ions": [[{"level": "e", "re": 1.0, "im": 0.0}]],
    "steps": [
        {"kind": "sideband_ge", "ion": 1, "phi": math.pi, "theta": math.pi / 2},
        {"kind": "carrier", "ion": 1, "phi": 0.0, "theta": math.pi},
        {"kind": "sideband_ge", "ion": 1, "phi": 0.0, "theta": 1.0, "label": "leak\nhere"},
    ],
}


@pytest.fixture(scope="module")
def sequence_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "sequence.json"


@FUZZ
@given(argv_cases())
# numpy refuses a normal scale of -0.0, which passes a "< 0" check.
@example(["noise", "--protocol=cluster6", "--trials=3", "--jitter-sigma=-0.0"])
# argparse quotes a stray argument whole, newline included.
@example(["run", "--protocol=cluster6", "x\ny"])
def test_fuzzed_argv_exits_cleanly(argv):
    check_cli(argv)


@FUZZ
@given(file_cases())
# A truncation message quotes the label of the step that leaks.
@example(case=("run", LEAKY_LABELLED, ["--n-max=1"]))
def test_fuzzed_sequence_files_exit_cleanly(sequence_path, case):
    command, doc, options = case
    sequence_path.write_text(json.dumps(doc))
    check_cli([command, "--sequence", str(sequence_path), *options])
