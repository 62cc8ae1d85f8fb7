"""The exit-code contract over every numeric option: a sweep generated from
``cli.COMMANDS`` and each option's kind.

Every int and float option of every subcommand gets each value below, one
option at a time, on top of a small valid run. Whatever the value, the
command must end in exit 0, 1 or 2, with no exception escaping ``main`` and
no warning or traceback on stderr. An option added later is swept without
anyone writing a case for it.
"""

import pytest

from seednorm.cli import COMMANDS, main

INTS = (-1, 0, 1, 2, 3, 7, 10**7, 2**63)
FLOATS = (0.0, -1.0, 1e308, -1e308, 1e300, 1e-300, 5e-324, 1e-12)
VALUES = {"int": INTS, "seed": INTS, "int_list": INTS,
          "float": FLOATS, "float_list": FLOATS}

TINY_MODEL = ["--dims", "8", "--layers", "1", "--heads", "2", "--context", "4",
              "--batch-size", "2", "--steps", "3"]
# a small valid run of each subcommand; the swept flag comes after, so it wins
BASE = {
    "gradcheck": ["--dims", "4", "--trials", "1"],
    "train": TINY_MODEL,
    "compare": TINY_MODEL,
    "cost": ["--layers", "1", "--dims", "8", "--heads", "2", "--check"],
}
# probe runs once per probe name, since each name reads its own options
BASE_PROBE = {
    "scale_insensitivity": ["--trials", "2"],
    "dot_variance": ["--samples", "10000"],
    "dyt_rmsnorm_ode": ["--samples", "10"],
}

# Values that are valid and ask for a run or an allocation too large for a
# test: skipped, each with its reason.
LONG_RUN = "starts the long run the flag asks for"
ALLOCATES = "allocates gigabytes for real"
SKIPS = {
    ("train", "--steps", 10**7): LONG_RUN,
    ("train", "--steps", 2**63): LONG_RUN,
    ("train", "--layers", 10**7): ALLOCATES,
    ("train", "--vocab", 10**7): ALLOCATES,
    ("train", "--context", 10**7): ALLOCATES,
    ("train", "--batch-size", 10**7): ALLOCATES,
    ("gradcheck", "--trials", 10**7): LONG_RUN,
    ("gradcheck", "--trials", 2**63): LONG_RUN,
    ("gradcheck", "--dims", 10**7): ALLOCATES,
    ("scale_insensitivity", "--trials", 10**7): ALLOCATES,
    ("scale_insensitivity", "--dims", 10**7): ALLOCATES,
    ("dot_variance", "--samples", 10**7): ALLOCATES,
    ("dot_variance", "--dims", 10**7): ALLOCATES,
    ("dyt_rmsnorm_ode", "--samples", 10**7): ALLOCATES,
    ("dyt_rmsnorm_ode", "--dims", 10**7): ALLOCATES,
    ("dyt_rmsnorm_ode", "--grid", 10**7): ALLOCATES,
}
for (cmd, flag, value), reason in list(SKIPS.items()):
    if cmd == "train":  # compare trains twice on the same flags
        SKIPS["compare", flag, value] = reason


def _cases():
    for command, _, opts, _ in COMMANDS:
        runs = ([(name, ["--name", name, *base]) for name, base in BASE_PROBE.items()]
                if command == "probe" else [(command, BASE[command])])
        for label, base in runs:
            for o in opts:
                for value in VALUES.get(o.kind, ()):
                    argv = [command, *base, o.flag, repr(value)]
                    reason = SKIPS.get((label, o.flag, value))
                    marks = [pytest.mark.skip(reason=reason)] if reason else []
                    yield pytest.param(argv, id=f"{label}{o.flag}={value!r}", marks=marks)


@pytest.mark.parametrize("argv", list(_cases()))
def test_every_numeric_value_ends_in_an_exit_code(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err
    assert "Warning" not in err
