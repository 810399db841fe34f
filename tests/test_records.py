"""The package's record types: construction, equality, hashing, immutability.

Seven plain value records are ``collections.namedtuple`` subclasses; the
six records that keep derived data on the instance (``RootDatum``,
``QuotientInvariants``, ``FPAbelianGroup``, ``EigenvalueDatum``,
``FiniteGroupModel`` and the count's ``Engine``) are plain classes.
Either way a record is built positionally or by keyword, with defaults
for its trailing fields; equal fields give equal records with equal
hashes, except that a root datum's label, a quotient's Smith basis and a
group's kept coordinates are not compared; and no field can be assigned
or deleted.
"""

import pytest

from charvar.abelian import (
    AdditiveMap,
    FPAbelianGroup,
    QuotientInvariants,
    SmithDecomposition,
    canonical_coordinates,
)
from charvar.charsum import EigenvalueDatum, SymbolicTorusElement
from charvar.cli_count import report_payload
from charvar.count import (
    DEFAULT_TRANSLATE_BUDGET,
    CountReport,
    Engine,
    ProblemSpec,
    TableRow,
    count_polynomial,
)
from charvar.errors import InvalidInputError
from charvar.oracle import ConcreteClassData, FiniteGroupModel
from charvar.qpoly import Poly
from charvar.rootdata import RootDatum

DATUM = EigenvalueDatum(("a", "b"), ("a*b",))
GL2 = RootDatum(2, ((1, -1), (-1, 1)), ((1, -1), (-1, 1)), (0,), "GL(2)")
ELEMENT = SymbolicTorusElement(DATUM, ((1, 0), (0, 1)))
SPEC = ProblemSpec(GL2, 1, 2, DATUM, (ELEMENT,), (("A1", True),))
ROW = TableRow("A1", 1, 2, "q + 1", "Z", 1, 1, "q - 1", "q - 1", False)

# (record, its fields in order with sample values, defaults of trailing fields)
RECORDS = [
    (SmithDecomposition, {
        "matrix": ((2, 0), (0, 3)), "D": ((1, 0), (0, 6)), "V": ((1, 0), (0, 1)),
        "divisors": (1, 6),
    }, {}),
    (AdditiveMap, {"functionals": (((0, 1),),), "moduli": (2,)}, {}),
    (QuotientInvariants, {
        "free_rank": 1, "torsion": (2,), "basis": ((1, 0), (0, 1)),
    }, {}),
    (FPAbelianGroup, {"generator_count": 2, "relations": ((1, 1),)},
     {"relations": ()}),
    (EigenvalueDatum, {"symbols": ("a", "b"), "relations": ("a*b",)},
     {"relations": ()}),
    (SymbolicTorusElement, {"datum": DATUM, "coords": ((1, 0), (0, 1))}, {}),
    (ProblemSpec, {
        "rd": GL2, "genus": 1, "punctures": 2, "eigenvalues": DATUM,
        "semisimple_classes": (ELEMENT,), "overrides": (("A1", True),),
    }, {"overrides": ()}),
    (TableRow, dict(zip(
        ("label", "orbit_size", "weyl_order", "poincare", "quotient",
         "torsion_order", "free_rank", "delta", "alpha", "overridden"),
        ROW,
    )), {}),
    (CountReport, {
        "group_label": "GL(2)", "genus": 1, "punctures": 2, "m": 1,
        "polynomial": Poly.q(), "is_empty": False,
        "empty_reason": None, "euler_characteristic": 0,
        "expected_dimension": 2, "degree": 1, "leading_coefficient": 1,
        "num_components": 1, "validity_modulus": 1,
        "diagnostic_exponent_lcm": 1, "excluded_primes": (2,),
        "warnings": (), "table": (ROW,), "factored": "q",
    }, {}),
    (Engine, {"spec": SPEC, "budget": 10}, {"budget": DEFAULT_TRANSLATE_BUDGET}),
    (FiniteGroupModel, {
        "family": "GL", "size": 1, "q": 3, "elements": (((1,),), ((2,),)),
        "label": "GL(1, F_3)",
    }, {}),
    (ConcreteClassData, {
        "kind": "semisimple", "key": ("gl",),
        "rep": ((2,),), "size": 1,
    }, {}),
    (RootDatum, {
        "rank": 2, "roots": GL2.roots, "coroots": GL2.coroots,
        "positive": (0,), "label": "GL(2)",
    }, {"label": ""}),
]
IDS = [record.__name__ for record, _fields, _defaults in RECORDS]


def _hashable(fields: dict) -> bool:
    try:
        hash(tuple(fields.values()))
    except TypeError:
        return False
    return True


def test_every_record_is_listed():
    assert len(RECORDS) == 13


@pytest.mark.parametrize("record,fields,defaults", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(record, fields, defaults):
    by_position = record(*fields.values())
    by_keyword = record(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    assert not by_position != by_keyword
    if _hashable(fields):
        assert hash(by_position) == hash(by_keyword)
    required = {k: v for k, v in fields.items() if k not in defaults}
    bare = record(**required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value


@pytest.mark.parametrize("a,b", [
    (GL2, RootDatum(2, (), (), ())),
    (QuotientInvariants(1, (2,), ()), QuotientInvariants(1, (3,), ())),
    (FPAbelianGroup(2), FPAbelianGroup(2, ((1, 1),))),
    (DATUM, EigenvalueDatum(("a", "b"))),
    (FiniteGroupModel("GL", 1, 2, (((1,),),), "GL(1, F_2)"),
     FiniteGroupModel("GL", 1, 2, (((1,),),), "GL(1, F_two)")),
    (Engine(SPEC), Engine(SPEC, 10)),
    (Engine(SPEC), Engine(SPEC._replace(genus=2))),
])
def test_plain_records_with_other_compared_fields_differ(a, b):
    assert a != b and not a == b


@pytest.mark.parametrize("record,fields,defaults", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields, defaults):
    value = record(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == fields[name]


def test_plain_records_reject_new_attributes():
    for value in (GL2, DATUM, FPAbelianGroup(1), QuotientInvariants(0, (), ()), Engine(SPEC)):
        with pytest.raises(AttributeError):
            value.extra = 1


def test_root_datum_label_is_not_compared():
    relabelled = RootDatum(GL2.rank, GL2.roots, GL2.coroots, GL2.positive, "other")
    assert relabelled == GL2
    assert hash(relabelled) == hash(GL2)
    assert relabelled.label == "other"
    assert RootDatum(2, (), (), ()) != RootDatum(3, (), (), ())


def test_quotient_basis_is_not_compared():
    a = QuotientInvariants(1, (2,), ((1, 0), (0, 1)))
    b = QuotientInvariants(1, (2,), ((0, 1), (1, 0)))
    assert a == b and hash(a) == hash(b)
    assert a != QuotientInvariants(1, (3,), a.basis)


def test_group_coordinates_are_not_compared():
    used = FPAbelianGroup(2, ((2, 0),))
    canonical_coordinates(used)
    canonical_coordinates(used, 3)
    fresh = FPAbelianGroup(2, ((2, 0),))
    assert used == fresh and hash(used) == hash(fresh)
    assert canonical_coordinates(fresh) == canonical_coordinates(used)


def test_engine_fields_are_filled_on_first_use_and_not_compared():
    filled, fresh = Engine(SPEC), Engine(SPEC)
    assert filled.pass_counts is filled.pass_counts  # computed once, then kept
    assert {"poset", "maps", "images", "pass_counts"} <= set(vars(filled))
    assert set(vars(fresh)) == {"spec", "budget"}
    assert filled == fresh and hash(filled) == hash(fresh)
    with pytest.raises(AttributeError):
        filled.pass_counts = {}


def test_records_of_different_types_differ():
    assert GL2 != (GL2.rank, GL2.roots, GL2.coroots, GL2.positive)
    assert QuotientInvariants(1, (), ()) != FPAbelianGroup(1)


def test_group_relation_length_is_checked():
    with pytest.raises(ValueError, match="relation length does not match generator count"):
        FPAbelianGroup(2, ((1, 2, 3),))


@pytest.mark.parametrize("symbols,message", [
    (("a", "a"), "repeated eigenvalue symbols"),
    (("a", "b^2"), "invalid eigenvalue symbol 'b^2'"),
    (("a", "2b"), "invalid eigenvalue symbol '2b'"),
])
def test_eigenvalue_symbols_are_checked(symbols, message):
    with pytest.raises(InvalidInputError) as exc:
        EigenvalueDatum(symbols)
    assert exc.value.code == "eigenvalue-data"
    assert str(exc.value) == message


def test_table_payload_keeps_field_order():
    datum = EigenvalueDatum(("a", "b"), ("a*b",))
    spec = ProblemSpec(
        GL2, 1, 2, datum, (SymbolicTorusElement.from_words(datum, "ab"),)
    )
    report = count_polynomial(spec)
    payload = report_payload(report)["table"]
    assert len(payload) == len(report.table) > 0
    for row, entry in zip(report.table, payload):
        assert list(entry) == [
            "label", "orbit_size", "weyl_order", "poincare", "quotient",
            "torsion_order", "free_rank", "delta", "alpha", "overridden",
        ]
        assert tuple(entry.values()) == tuple(row)
