"""The ``simulate`` and ``exhaust`` CLI documents pinned across commits: every
integer and string exactly, every float to 1e-12 relative, as the plan pins
do.  A float that is zero in exact arithmetic (the exhaust's relative
entropy at p = q, the work distance of an m = 0 plan) comes out as a
summation residue near 1e-17, which a one-ulp difference in the host's
vectorised ``np.log`` or sum can change entirely, so floats also pass within
1e-15 absolute.

After a deliberate change of the executors, regenerate the pins with
``PYTHONPATH=src python tests/test_executor_pins.py``.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from athermal.cli import main
from athermal.core import gibbs_weight

PINS = Path(__file__).parent / "data" / "executor_pins.json"
COMMANDS = [
    "simulate --n 3 --p 0.9 --width 1.0",
    "simulate --n 5 --p 0.95 --width 0.75",
    "exhaust --n 4 --p 0.95 --width 0.75",
    "exhaust --n 5 --p 0.95 --width 0.75 --block-size 2",
    f"exhaust --n 4 --p {gibbs_weight(1.0)!r} --beta 1.0",
]


def documents():
    """Every command's JSON document, by command line."""
    docs = {}
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(command.split()) == 0, command
        docs[command] = json.loads(out.getvalue())
    return docs


def assert_matches(got, pinned, path):
    if isinstance(pinned, float):
        assert isinstance(got, float), path
        assert math.isclose(got, pinned, rel_tol=1e-12, abs_tol=1e-15), path
    elif isinstance(pinned, dict):
        assert sorted(got) == sorted(pinned), path
        for key in pinned:
            assert_matches(got[key], pinned[key], f"{path}.{key}")
    elif isinstance(pinned, list):
        assert len(got) == len(pinned), path
        for i, (a, b) in enumerate(zip(got, pinned)):
            assert_matches(a, b, f"{path}[{i}]")
    else:
        assert type(got) is type(pinned) and got == pinned, path


def test_documents_match_pins():
    pinned = json.loads(PINS.read_text())
    got = documents()
    assert sorted(got) == sorted(pinned)
    for label, doc in pinned.items():
        assert_matches(got[label], doc, label)


@pytest.mark.parametrize("got, pinned", [(1.0 + 1e-11, 1.0), (1e-14, 0.0), (2, 2.0),
                                         ([1, 2], [1, 3]), ({"m": 1}, {"m": 1, "k": 2}),
                                         (True, 1)])
def test_mismatches_are_caught(got, pinned):
    with pytest.raises(AssertionError):
        assert_matches(got, pinned, "document")


if __name__ == "__main__":
    lines = [f"{json.dumps(label)}: {json.dumps(doc, sort_keys=True)}"
             for label, doc in documents().items()]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} documents to {PINS}")
