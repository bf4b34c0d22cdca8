"""Value semantics of the package's record and table types.

Each is built by position or by keyword, with its defaults; equal and hashed
by value, and only equal to its own type (never to a plain tuple or to an
object with the same attributes); shown as ``Name(field=...)``; read-only;
and it pickles, after derived values have been read too.
"""

import pickle
from types import SimpleNamespace

import pytest

from demimat import codes, core, hamming, inputs, ops, registry, simplicial, weights
from demimat.errors import MalformedInputError

TABLE = core.uniform(3, 1)
COMPLEX = core.Complex.build(3, [0b011, 0b100])

# (type, its fields in order with one value each)
CASES = [
    (core.Violation, {"axiom": "R2", "witnesses": (3, 0)}),
    (core.ValidationReport, {"kind": "matroid", "violations": ()}),
    (core.RankTable, {"n": 3, "ranks": TABLE.ranks}),
    (core.Complex, {"n": 3, "face_set": COMPLEX.face_set}),
    (core.GaloisReport, {"items": (("up_down_identity", True),)}),
    (codes.PrimeMatrix, {"p": 2, "rows": ((1, 0, 1), (0, 1, 1))}),
    (codes.LinearCodeView, {"p": 2, "n": 3, "k": 1, "generator": ((1, 1, 1),)}),
    (hamming.ConjectureReport, {"holds": False, "error": "no"}),
    (simplicial.FieldSpec, {"characteristic": 3}),
    (simplicial.BettiTable, {"entries": (((0, 0), 1), ((1, 2), 3))}),
    (weights.WeiProfile, {"k": 1, "d": (1,), "d_up": (0, 3)}),
    (inputs.LoadedInput, {"construction": "complex-up", "table": TABLE, "cx": COMPLEX}),
    (registry.Invariant, {"needs": registry.TABLE, "block": None, "golden": None}),
]


@pytest.mark.parametrize("cls, fields", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value
    assert by_position == by_keyword and not by_position != by_keyword
    if cls is not simplicial.FieldSpec:  # which checks its one field
        assert by_position != cls(**{**fields, next(iter(fields)): object()})
    # Another type with the same values is not equal, either way round.
    for other in (tuple(fields.values()), SimpleNamespace(**fields)):
        assert by_position != other and other != by_position
        assert not by_position == other
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_position) == f"{cls.__name__}({shown})"
    assert pickle.loads(pickle.dumps(by_position)) == by_position
    first = next(iter(fields))
    assert hash(by_position) == hash(by_keyword)
    assert {by_position, by_keyword} == {by_keyword}
    with pytest.raises(AttributeError):
        setattr(by_position, first, fields[first])


def test_defaults():
    assert hamming.ConjectureReport(True).error is None
    assert inputs.LoadedInput("graph", TABLE).cx is None


def test_a_field_spec_validates_its_characteristic():
    for build in (lambda: simplicial.FieldSpec(4), lambda: simplicial.FieldSpec(characteristic=-2)):
        with pytest.raises(MalformedInputError):
            build()
    assert simplicial.FieldSpec(0) == simplicial.RATIONALS
    assert simplicial.FieldSpec(2) != simplicial.FieldSpec(3)


def test_tables_pickle_with_their_derived_values():
    table = core.uniform(4, 2)
    values = (table.kind, table.profile, ops.dual(table), hamming.hamming_subset_sum(table))
    back = pickle.loads(pickle.dumps(table))
    assert back == table
    assert (back.kind, back.profile, ops.dual(back), hamming.hamming_subset_sum(back)) == values
    demimatroid = core.complex_to_demimatroid(COMPLEX)
    assert core.complex_to_demimatroid(pickle.loads(pickle.dumps(COMPLEX))) == demimatroid
    matrix = codes.PrimeMatrix.build(2, [[1, 0, 1], [0, 1, 1]])
    echelon = matrix.echelon
    back = pickle.loads(pickle.dumps(matrix))
    assert back == matrix and back.echelon == echelon


def test_a_memoized_function_without_its_required_argument_raises_every_time():
    calls = []

    @core.per_table
    def probe(table, r):
        calls.append(r)
        return r

    table = core.uniform(3, 1)
    # An explicit None is an argument like any other: it keys its own entry,
    # which a call that leaves the argument out never reads.
    assert probe(table, None) is None
    for _ in range(2):
        with pytest.raises(TypeError):
            probe(table)
    assert probe(table, None) is None
    assert calls == [None]
