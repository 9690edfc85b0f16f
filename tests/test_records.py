"""The library's records against the frozen dataclasses they replace: the
same constructors, equality, hashing, repr, immutability, copies and
validation errors; and the CLI import that no longer needs ``dataclasses``."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import MISSING, fields
from fractions import Fraction

import pytest

from aptkit import toric
from aptkit.barcodes import Bar, DecoratedInterval, interval
from aptkit.errors import InvalidInput
from aptkit.geometry import Cone
from aptkit.interleaving import InterleavingCertificate
from aptkit.k0 import K0Class
from aptkit.toric import Chart, Transition

from oracles import BarTwin, CertificateTwin, ChartTwin, IntervalTwin, TransitionTwin

QUAD = Cone(2, [(1, 0), (0, 1)])
CHART = toric.chart_of_cone(QUAD)
SKEW_CHART = toric.chart_of_cone(Cone(2, [(1, 0), (1, 2)]))
HALF = Fraction(1, 2)

# (record, twin, field values, other field values)
CASES = [
    (DecoratedInterval, IntervalTwin, (Fraction(0), HALF, True, True), (Fraction(0), HALF, True, False)),
    (Bar, BarTwin, (interval(0, 1), 1, 2), (interval(0, 1), 1, 3)),
    (InterleavingCertificate, CertificateTwin, (HALF, HALF, (0, None), (0,)), (HALF, HALF, (0, None), (None,))),
    (Chart, ChartTwin, (QUAD, 2), (QUAD, "Q")),
    (Transition, TransitionTwin, ((HALF, HALF), CHART.dual), ((HALF, HALF), SKEW_CHART.dual)),
]
IDS = [record.__name__ for record, *_ in CASES]


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def _unchecked(record, values):
    """A record of the leading field values, one per slot in slot order,
    built past its validating ``__init__``."""
    rec = object.__new__(record)
    for name, value in zip(record.__slots__, values):
        object.__setattr__(rec, name, value)
    return rec


def _error(make, args):
    try:
        make(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("record, twin, values, other", CASES, ids=IDS)
def test_record_matches_its_dataclass(record, twin, values, other):
    names = tuple(f.name for f in fields(twin))
    assert record.__slots__ == names == record.__match_args__
    rec, ref = record(*values), twin(*values)
    assert repr(rec) == repr(ref)
    assert record(**dict(zip(names, values))) == rec
    assert _hash(rec) == _hash(ref)
    for left, right in ((values, values), (values, other), (other, values)):
        assert (record(*left) == record(*right)) == (twin(*left) == twin(*right))
        assert (record(*left) != record(*right)) == (twin(*left) != twin(*right))
    assert rec != ref and rec != values
    # another record class with the leading field values, built unchecked:
    # most classes reject the values of another
    strangers = [_unchecked(stranger, values) for stranger, *_ in CASES
                 if stranger is not record and len(stranger.__slots__) <= len(values)]
    assert strangers
    for stranger in strangers:
        assert rec != stranger and not rec == stranger


@pytest.mark.parametrize("record, twin, values, other", CASES, ids=IDS)
def test_record_defaults_match_its_dataclass(record, twin, values, other):
    required = sum(f.default is MISSING for f in fields(twin))
    assert repr(record(*values[:required])) == repr(twin(*values[:required]))


@pytest.mark.parametrize("record, twin, values, other", CASES, ids=IDS)
def test_record_is_frozen(record, twin, values, other):
    rec = record(*values)
    for name in (*record.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == repr(twin(*values))


@pytest.mark.parametrize("record, twin, values, other", CASES, ids=IDS)
def test_record_copies_and_pickles(record, twin, values, other):
    rec = record(*values)
    for twin_of_rec in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin_of_rec) is record
        assert twin_of_rec == rec and repr(twin_of_rec) == repr(rec)


@pytest.mark.parametrize(
    "record, twin, values",
    [
        (DecoratedInterval, IntervalTwin, ("inf", 1)),
        (DecoratedInterval, IntervalTwin, (0, "-inf")),
        (DecoratedInterval, IntervalTwin, ("-inf", 0, True)),
        (DecoratedInterval, IntervalTwin, (0, "inf", True, True)),
        (DecoratedInterval, IntervalTwin, (2, 1)),
        (DecoratedInterval, IntervalTwin, (1, 1)),
        (DecoratedInterval, IntervalTwin, (1, 1, False, True)),
        (DecoratedInterval, IntervalTwin, ("abc", 1)),
        (DecoratedInterval, IntervalTwin, (0.5, 1)),
        (DecoratedInterval, IntervalTwin, (0, "1e5000")),
        (Bar, BarTwin, (interval(0, 1), 0, 0)),
        (Bar, BarTwin, (interval(0, 1), 0, -1)),
    ],
)
def test_record_validation_errors_are_unchanged(record, twin, values):
    error = _error(record, values)
    assert error is not None and error == _error(twin, values)


@pytest.mark.parametrize(
    "make, values",
    [
        (K0Class, ([(0, 2.5)],)),
        (K0Class, ([(0, True)],)),
        (K0Class, ([(0, Fraction(2))],)),
        (Bar, (interval(0, 1), 0, 1.5)),
        (Bar, (interval(0, 1), 0, True)),
        (Bar, (interval(0, 1), 0.0, 1)),
        (Bar, (interval(0, 1), False, 1)),
        (Bar, (interval(0, 1), "1", 1)),
        (DecoratedInterval, (0, 1, 1, 0)),
        (DecoratedInterval, (0, 1, True, 0)),
        (DecoratedInterval, (0, 1, None, False)),
        (DecoratedInterval, ("-inf", 1, 0, False)),
    ],
)
def test_records_keep_exact_types(make, values):
    # degrees, multiplicities and K0 coefficients are ints and closed flags
    # bools, so that exact output never prints 1.5 or 1 for them; the
    # dataclass twins accept these values, so they are not compared here
    with pytest.raises(InvalidInput):
        make(*values)


def test_cli_import_leaves_dataclasses_and_inspect_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toric.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys\nbefore = set(sys.modules)\nimport aptkit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
