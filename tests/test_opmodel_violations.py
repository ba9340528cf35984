"""The violations of `opmodel.orthogonality_check`: a sequence that keeps
each violation as ints and builds its text when the item is read, and reads
like the list of texts the reference check builds; and the states and
operators the check refuses."""

import random
from fractions import Fraction as F

import pytest

from freeconv import opmodel
from freeconv.errors import InvalidParameter
from freeconv.measures import make_jacobi
from test_opmodel import orthogonality_check_reference, small_model


def failing_args():
    model = small_model(seed=13)
    return model.x1, model.x2, model.vacuum(), model.word_vector(((1, 1),)), 2, model.weights


def test_failing_report_reads_like_the_reference_list():
    got = opmodel.orthogonality_check(*failing_args()).violations
    want = orthogonality_check_reference(*failing_args()).violations
    assert type(want) is list and len(want) > 10
    assert len(got) == len(want)
    assert (got[0], got[-1], got[-len(want)]) == (want[0], want[-1], want[0])
    with pytest.raises(IndexError):
        got[len(want)]
    for cut in (slice(1, 4), slice(None, None, -5), slice(-3, None)):
        assert type(got[cut]) is list and got[cut] == want[cut]
    assert [v for v in got] == want
    assert got == want and want == got and not got != want
    assert got != want[:-1] and got != want[::-1] and got != "".join(want)


def test_counting_builds_no_text(monkeypatch):
    report = opmodel.orthogonality_check(*failing_args())

    def text(self, item):
        raise AssertionError("a violation text was built")

    monkeypatch.setattr(type(report.violations), "_text", text)
    assert not report.ok and len(report.violations) > 10


def test_passing_report_has_no_violations():
    model = small_model(seed=12)
    report = opmodel.orthogonality_check(
        model.replica(1, 1), model.branch(2, 2), model.vacuum(), model.word_vector(((1, 1),)), 3, model.weights
    )
    assert report.ok and not report.violations
    assert len(report.violations) == 0 and list(report.violations) == [] and report.violations == []


def test_state_of_norm_zero_rejected():
    # the conditions divide by each state's norm; every word's weight is
    # positive, so a state of norm 0 is a zero vector
    j = make_jacobi([1, 2], [F(1, 3), 0])
    model = opmodel.FreeProductModel(j, j, depth_cap=4)
    null = {model.basis.index[((1, 1),)]: F(0)}
    for xi, eta in ((null, model.vacuum()), (model.vacuum(), null)):
        with pytest.raises(InvalidParameter, match="nonzero norm"):
            opmodel.orthogonality_check(model.x1, model.x2, xi, eta, 2, model.weights)


def random_integer_operator(rng, size=4):
    entries = {(r, c): rng.randint(-3, 3) for r in range(size) for c in range(size)}
    return opmodel.ModelOperator(size, entries)


def test_pairs_that_are_not_self_adjoint_are_rejected():
    # the check moves letters across each dot by self-adjointness, so on
    # any other pair its report would mean nothing
    rng = random.Random(30)
    pairs = 0
    while pairs < 30:
        a, b = random_integer_operator(rng), random_integer_operator(rng)
        if a.is_self_adjoint([1] * 4) and b.is_self_adjoint([1] * 4):
            continue
        pairs += 1
        with pytest.raises(InvalidParameter, match="not self-adjoint under the weights"):
            opmodel.orthogonality_check(a, b, {0: F(1)}, {1: F(1)}, 2, [1] * 4)


def test_only_the_columns_the_check_reads_must_be_self_adjoint():
    # b is symmetric on the columns the states reach (0 and 1) and not on
    # column 3, which no chain reaches, since no entry leads there
    a = opmodel.ModelOperator(4, {(0, 0): 1, (0, 1): 2, (1, 0): 2})
    b = opmodel.ModelOperator(4, {(1, 1): 3, (2, 3): 5})
    assert not b.is_self_adjoint([1] * 4)
    assert b.is_self_adjoint([1] * 4, [0, 1, 2])
    opmodel.orthogonality_check(a, b, {0: F(1)}, {1: F(1)}, 2, [1] * 4)
    with pytest.raises(InvalidParameter, match="operator b is not self-adjoint"):
        opmodel.orthogonality_check(a, b, {0: F(1)}, {3: F(1)}, 2, [1] * 4)
