"""The package's value types are `collections.namedtuple` subclasses, so the
CLI's start-up path loads neither `dataclasses` (and with it `inspect`,
`ast`, `dis` and `tokenize`) nor `typing`.  These tests pin what the value
types kept from the dataclasses they replace: equality and hashing by
value, read-only fields and the `Name(field=value, ...)` repr."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from freeconv import graphs, measures, opmodel, partitions, verify
from freeconv.measures import WignerTail, make_jacobi

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import freeconv.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def tail():
    return WignerTail(Fraction(1, 2), Fraction(3))


def jacobi():
    return make_jacobi([0, Fraction(1, 3)], [2], tail())


# Two equal values of each type, built apart.
VALUES = {
    "WignerTail": lambda: tail(),
    "JacobiParams": jacobi,
    "AtomicMeasure": lambda: measures.atomic_measure([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]),
    "RootedGraph": lambda: graphs.path_graph(3, 1),
    "WordBasis": lambda: opmodel.WordBasis.build((2, 3), 3),
    "OrthogonalityReport": lambda: opmodel.OrthogonalityReport(False, 4, ("phi(a^1 b^1) = 1/2",)),
    "DecomposablePartition": lambda: partitions.decomposable_partition([(1, 4)], [(2, 3)], 4),
    "DecompositionPair": lambda: partitions.enumerate_DP2(4)[-1],
    "CheckResult": lambda: verify.CheckResult("some-check", True, "3 cases"),
    "Check": lambda: verify.Check("partitions", verify.CHECKS["odd-refinement-small-cases"].fn),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_equal(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name
    assert a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", VALUES)
def test_assigning_a_field_raises_attribute_error(name):
    value = VALUES[name]()
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert getattr(value, field) is not None


def test_a_changed_copy_is_made_by_replace():
    j = jacobi()
    assert j._replace(tail=None) == make_jacobi([0, Fraction(1, 3)], [2])
    assert j.tail == tail()


def test_word_basis_compares_by_words_dims_and_depth_cap_alone():
    a = opmodel.WordBasis.build((2, 3), 3)
    b = opmodel.WordBasis(a.words, a.dims, a.depth_cap, {}, [])
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != opmodel.WordBasis.build((2, 3), 2)
    assert repr(a) == f"WordBasis(words={a.words!r}, dims=(2, 3), depth_cap=3)"
    assert len(a) == len(a.words)


def test_check_result_compares_without_its_elapsed_time():
    a = verify.CheckResult("c", False, "seed 7", 0.5)
    b = verify.CheckResult("c", False, "seed 7", 1.5)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != verify.CheckResult("c", False, "seed 8", 0.5)
    assert verify.CheckResult("c", True) == verify.CheckResult("c", True, "", 0.0)


def test_repr_keeps_the_name_and_fields_form():
    assert repr(tail()) == "WignerTail(a=Fraction(1, 2), b=Fraction(3, 1))"
    assert repr(jacobi()) == (
        "JacobiParams(alpha=(Fraction(0, 1), Fraction(1, 3)), omega=(Fraction(2, 1),), "
        "tail=WignerTail(a=Fraction(1, 2), b=Fraction(3, 1)), finite=False)"
    )


def test_a_witness_prints_a_value_type_by_its_repr():
    j = jacobi()
    assert verify._show([j, (1, Fraction(1, 2))]) == f"({j!r}, (1, 1/2))"


def test_jacobi_params_builds_its_float_levels_once():
    j = jacobi()
    assert j._float_levels is j._float_levels
    assert "_float_levels" in vars(j)


class CountingFraction(Fraction):
    floats = 0

    def __float__(self):
        CountingFraction.floats += 1
        return super().__float__()


def test_a_wigner_tail_is_read_as_floats_once_per_recursion():
    floats = []
    for points in (3, 601):
        CountingFraction.floats = 0
        j = make_jacobi([0], [], WignerTail(CountingFraction(1, 2), CountingFraction(1)))
        grid = [-2 + 4 * i / (points - 1) for i in range(points)]
        measures.stieltjes_density(j, grid)
        floats.append(CountingFraction.floats)
    assert floats[0] == floats[1] <= 4
    # the transform still takes rationals, and gives the value eval_G uses
    z = complex(0.25, 0.5)
    g = measures.wigner_transform(Fraction(1, 2), Fraction(1), z)
    assert measures.eval_G(make_jacobi([], [], WignerTail(Fraction(1, 2), Fraction(1))), z) == g
