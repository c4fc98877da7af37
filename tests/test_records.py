"""The contract of the record types: value equality and hash, normalized
fields, validation, read-only fields and pickling.

Records are plain classes (``collections.namedtuple`` or ``__slots__``),
so this file states what each one promises instead of leaning on a code
generator.
"""

import copy
import pickle

import pytest

from canonlab.canon import AmphibianSpec
from canonlab.errors import PosetFormatError
from canonlab.forms import eulerian
from canonlab.gamma import GammaInterpretation
from canonlab.polys import IntPolynomial
from canonlab.poset import Poset, chain, poset_from_json
from canonlab.sweep import conjecture_sweep, parallel_map
from canonlab.verify import IdentityReport, is_dyck_path


def _sweep_row(mask: int):
    return conjecture_sweep(2, 3)[mask]


def _file_labels(labels: str):
    """Load a two-element poset file carrying ``labels``: labelings are
    plain tuples, validated only where a file supplies them."""
    return poset_from_json(f'{{"elements": 2, "covers": [], "labels": {labels}}}')


# (make, a different value of the same type, a field name)
RECORDS = {
    "Poset": (lambda: Poset(3, [(0, 1), (0, 2)]), Poset(3, [(0, 1)]), "covers"),
    "IntPolynomial": (lambda: IntPolynomial((1, 2)), IntPolynomial((1, 3)), "coefficients"),
    "AmphibianSpec": (lambda: AmphibianSpec.from_removed(2, 3, [(1, 1)]), AmphibianSpec(2, 3, 0),
                      "mask"),
    "IdentityReport": (lambda: IdentityReport("x", True), IdentityReport("x", False), "holds"),
    "GammaInterpretation": (
        lambda: GammaInterpretation(2, 2, (1, 1), (1, 1), 1, 1, True),
        GammaInterpretation(2, 2, (1, 1), (1, 0), 1, None, False),
        "matches",
    ),
    "SweepRow": (lambda: _sweep_row(1), _sweep_row(2), "mask"),
}

SLOTTED = ("Poset", "IntPolynomial", "AmphibianSpec")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash_by_value(name):
    make, other, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and type(other) is type(a)
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    make, other, field = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == make()


@pytest.mark.parametrize("name", SLOTTED)
def test_slotted_records_take_no_new_attributes(name):
    record = RECORDS[name][0]()
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_poset_equality_ignores_derived_adjacency():
    a = Poset(3, [(0, 1), (0, 2)])
    b = Poset(3, frozenset({(0, 2), (0, 1)}))
    assert a == b and hash(a) == hash(b)
    assert a != Poset(4, a.covers)
    assert a != (3, a.covers)
    assert repr(a) == f"Poset(element_count=3, covers={a.covers!r})"


def test_reprs():
    assert repr(IntPolynomial((1, 0, 2))) == "IntPolynomial(coefficients=(1, 0, 2))"
    assert repr(AmphibianSpec(2, 2, 1)) == "AmphibianSpec(m=2, n=2, mask=1)"


def test_value_identity_reads_the_fields_alone():
    # both value classes take equality, hash, repr and pickling from
    # Frozen and their _fields; the goldens pin what each one reads
    p, q = chain(3), IntPolynomial((1, 2))
    assert repr(p) == "Poset(element_count=3, covers=frozenset({(0, 1), (1, 2)}))"
    assert repr(q) == "IntPolynomial(coefficients=(1, 2))"
    assert hash(p) == hash((p.element_count, p.covers))
    assert hash(q) == hash((q.coefficients,))
    for value in (p, q):
        assert pickle.loads(pickle.dumps(value)) == value
    assert p.__reduce__() == (Poset, (3, p.covers))
    assert q.__reduce__() == (IntPolynomial, ((1, 2),))
    # equality with another class is NotImplemented, so never equal
    assert IntPolynomial((1,)) != (1,) and q.__eq__((1, 2)) is NotImplemented
    assert p != (3, p.covers) and p.__eq__(q) is NotImplemented


def test_values_cross_worker_processes():
    one = parallel_map(eulerian, range(1, 7), jobs=1)
    two = parallel_map(eulerian, range(1, 7), jobs=2)
    assert two == one and all(type(v) is IntPolynomial for v in two)


class TestNormalization:
    def test_polynomial_drops_trailing_zeros(self):
        p = IntPolynomial([1, 2, 0, 0])
        assert p.coefficients == (1, 2)
        assert p == IntPolynomial((1, 2))
        assert IntPolynomial((0, 0)).coefficients == IntPolynomial((0,)).coefficients == ()

    def test_poset_covers_become_a_frozenset(self):
        p = Poset(3, [[0, 1], [0, 2]])
        assert p.covers == frozenset({(0, 1), (0, 2)})
        assert isinstance(p.covers, frozenset)

    def test_spec_removed_pairs_become_a_mask(self):
        spec = AmphibianSpec.from_removed(2, 3, [[2, 2], [1, 1], [2, 2]])
        assert spec == AmphibianSpec(2, 3, 0b1001)
        assert spec.removed == ((1, 1), (2, 2))

    def test_labeling_values_become_a_tuple(self):
        # a labeling is a plain tuple; the JSON list of a file's labels
        # becomes one on load
        _, lab = _file_labels("[2, 1]")
        assert lab == (2, 1)
        assert isinstance(lab, tuple)

    def test_report_sides_are_optional(self):
        report = IdentityReport("check", False, witness="why")
        assert report.lhs is None and report.rhs is None
        p = IntPolynomial((1,))
        assert IdentityReport.compare("same", p, p) == IdentityReport("same", True, p, p)


@pytest.mark.parametrize("build, error, match", [
    (lambda: Poset(-1, ()), PosetFormatError, "non-negative"),
    (lambda: Poset(2, [(0, 2)]), PosetFormatError, "out of range"),
    (lambda: Poset(2, [(1, 1)]), PosetFormatError, "self-loop"),
    (lambda: Poset(2, [(0, 1), (1, 0)]), PosetFormatError, "cyclic"),
    (lambda: Poset(3, [(0, 1), (1, 2), (0, 2)]), PosetFormatError, "redundant"),
    (lambda: _file_labels("[1, 3]"), PosetFormatError, r"labeling \(1, 3\) is not a bijection"),
    (lambda: _file_labels("[1, 1]"), PosetFormatError, r"labeling \(1, 1\) is not a bijection"),
    (lambda: AmphibianSpec(0, 2, 0).poset(), ValueError, "must be >= 1"),
    (lambda: AmphibianSpec.from_removed(2, 2, [(1, 2)]), ValueError,
     r"\(row=1, j=2\) out of range"),
    (lambda: IdentityReport("x"), TypeError, "holds"),
])
def test_validation_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("steps, expected", [
    ("", True),
    ("eenn", True),
    ("ex", False),  # a step that is neither e nor n
    ("ne", False),  # rises above the diagonal
    ("ee", False),  # unbalanced
])
def test_is_dyck_path(steps, expected):
    # a Dyck path is its step string; validity is a predicate, not a
    # constructor that raises
    assert is_dyck_path(steps) is expected


@pytest.mark.parametrize("name", ["IntPolynomial", "AmphibianSpec", "SweepRow", "Poset"])
def test_pickle_and_copy_round_trip(name):
    record = RECORDS[name][0]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert clone == record and type(clone) is type(record)


def test_unpickled_poset_keeps_its_adjacency():
    p = pickle.loads(pickle.dumps(Poset(3, [(0, 1), (1, 2)])))
    assert p.below == (0, 1, 2) and p.successors(1) == (2,) and p.topological_order() == (0, 1, 2)
