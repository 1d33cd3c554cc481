"""The package's result and config records: immutable, keyword/positional
agnostic, and validated on every path that builds one."""

import pickle

import pytest

from qdelannoy.congruence import (
    STATEMENTS,
    CongruenceReport,
    Statement,
    SweepConfig,
    SweepSummary,
    sweep,
    verify_theorem2,
)
from qdelannoy.orbits import (
    AuditReport,
    CornerFrame,
    Decomposition,
    Q4,
    audit,
    decompose,
)
from qdelannoy.paths import D, E, N


FRAME = CornerFrame(1, 0, 2)
Q2_PATH = (N, E, N, E, E)
RECORDS = [
    FRAME,
    decompose(Q2_PATH, FRAME),
    audit(CornerFrame(0, 0, 1)),
    verify_theorem2(1, 0, 0),
    SweepConfig("thm2", max_n=1),
    sweep(SweepConfig("thm2", max_n=1)),
    STATEMENTS["thm2"],
]


def test_every_record_type_is_covered():
    assert [type(record) for record in RECORDS] == [
        CornerFrame,
        Decomposition,
        AuditReport,
        CongruenceReport,
        SweepConfig,
        SweepSummary,
        Statement,
    ]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_keyword_and_positional_construction_agree(record):
    cls = type(record)
    by_keyword = cls(**record._asdict())
    by_position = cls(*record)
    assert by_keyword == by_position == record
    assert type(by_keyword) is type(by_position) is cls


INVALID = [
    (CornerFrame, (-1, 0, 1), ValueError, "corner must be in the first quadrant"),
    (CornerFrame, (0, -2, 1), ValueError, "corner must be in the first quadrant"),
    (CornerFrame, (0, 0, 0), ValueError, "segment length must be positive"),
    (CornerFrame, (1.5, 0, 1), TypeError, "h must be int, got 1.5"),
    (CornerFrame, (True, 0, 1), TypeError, "h must be int, got True"),
    (CornerFrame, (0, 0, "2"), TypeError, "n must be int, got '2'"),
    (SweepConfig, ("nope", 0, 0, 0, 0, 0, 1), ValueError, "unknown statement 'nope'"),
    (SweepConfig, ("thm2", -1, 0, 0, 0, 0, 1), ValueError, "max_n must be nonnegative"),
    (SweepConfig, ("thm2", 1, 2, 0, 0, 0, 1), ValueError, "thm2 does not read max_a"),
    (SweepConfig, ("thm2", 1, 0, 0, 0, 0, 0), ValueError, "jobs must be at least 1"),
    (SweepConfig, ("thm2", 3, 0, 0, 1.0, 0, 1), TypeError, "max_h must be int, got 1.0"),
    (SweepConfig, ("thm2", True, 0, 0, 0, 0, 1), TypeError, "max_n must be int, got True"),
    (SweepConfig, ("thm2", 1, 0, 0, 0, 0, False), TypeError, "jobs must be int, got False"),
]
INVALID_IDS = [f"{cls.__name__}{fields}" for cls, fields, _, _ in INVALID]


@pytest.mark.parametrize("cls, fields, error, message", INVALID, ids=INVALID_IDS)
def test_validating_records_reject_bad_fields_when_constructed(cls, fields, error, message):
    with pytest.raises(error, match=message):
        cls(*fields)
    with pytest.raises(error, match=message):
        cls(**dict(zip(cls._fields, fields)))
    with pytest.raises(error, match=message):
        cls._make(fields)


@pytest.mark.parametrize("cls, fields, error, message", INVALID, ids=INVALID_IDS)
def test_validating_records_reject_bad_fields_when_unpickled(cls, fields, error, message):
    # tuple.__new__ skips validation, so this stands for a bad record made
    # elsewhere; a library user who pickles a SweepConfig to a process of
    # their own gets it back this way (--jobs workers are forked and pickle nothing).
    forged = tuple.__new__(cls, fields)
    data = pickle.dumps(forged)
    with pytest.raises(error, match=message):
        pickle.loads(data)


def test_validating_records_reject_bad_fields_when_replaced():
    with pytest.raises(ValueError, match="segment length must be positive"):
        CornerFrame(1, 1, 2)._replace(n=0)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        SweepConfig("thm2", max_n=1)._replace(jobs=0)
    with pytest.raises(TypeError, match="k must be int"):
        CornerFrame(1, 1, 2)._replace(k=1.0)
    with pytest.raises(TypeError, match="max_k must be int"):
        SweepConfig("thm2", max_n=1)._replace(max_k=True)
    assert CornerFrame(1, 1, 2)._replace(n=3) == CornerFrame(1, 1, 3)


def test_validated_records_survive_a_pickle_round_trip():
    for record in (CornerFrame(2, 1, 3), SweepConfig("thm1", max_n=3, max_a=1, max_c=2, jobs=2)):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert type(copy) is type(record)


def test_records_compare_equal_to_plain_tuples():
    assert CornerFrame(1, 0, 2) == (1, 0, 2)
    assert CornerFrame(1, 0, 2).target == (3, 2)
    assert decompose((D,), CornerFrame(0, 0, 1)) == ((), (), (D,), Q4)
