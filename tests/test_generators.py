import math

import numpy as np
import pytest

from atsuji import (
    FiniteSpace,
    convergent_sequence,
    positive_integers,
    sequence_grid,
    verify_metric_axioms,
)


def test_grid_point_count_and_order():
    space, oracle = sequence_grid(2, 2, True)
    assert space.n == 5
    assert space.ids == ("zero", "p_1_1", "p_1_2", "p_2_1", "p_2_2")
    assert oracle.kind == "oracle"
    assert oracle.members == {"zero"}


def test_grid_without_origin():
    space, oracle = sequence_grid(2, 3, False)
    assert space.n == 6
    assert "zero" not in space.ids
    assert oracle.members == frozenset()


def test_grid_cross_slot_distance_sqrt2():
    space, _ = sequence_grid(2, 2, True)
    assert abs(space.distance("p_1_1", "p_2_1") - math.sqrt(2)) <= 1e-12
    # scaled rows: sqrt(2)/m
    space, _ = sequence_grid(2, 3, False)
    assert abs(space.distance("p_1_3", "p_2_3") - math.sqrt(2) / 3) <= 1e-12


def test_grid_same_slot_distance():
    space, _ = sequence_grid(2, 2, True)
    assert space.distance("p_1_1", "p_1_2") == 0.5


def test_grid_origin_distance_is_norm():
    space, _ = sequence_grid(3, 5, True)
    for j in (1, 2, 5):
        assert space.distance("zero", f"p_2_{j}") == pytest.approx(1 / j, abs=1e-15)


def test_grid_rejects_bad_bounds():
    with pytest.raises(ValueError):
        sequence_grid(0, 3, True)
    with pytest.raises(ValueError):
        sequence_grid(3, -1, False)


def test_integers_d1():
    space, oracle = positive_integers(10, "d1")
    assert space.ids[0] == "n1"
    assert space.distance("n3", "n7") == 4.0
    assert oracle.members == frozenset()


def test_integers_d2():
    space, _ = positive_integers(10, "d2")
    assert space.distance("n1", "n2") == 0.5
    for n in (1, 4, 9):
        expected = 1 / (n * (n + 1))
        assert space.distance(f"n{n}", f"n{n + 1}") == pytest.approx(expected, abs=1e-15)


def test_integers_rejects_bad_params():
    with pytest.raises(ValueError):
        positive_integers(1, "d1")
    with pytest.raises(ValueError):
        positive_integers(10, "euclid")


def test_convergent_sequence():
    space, oracle = convergent_sequence(10)
    assert space.ids[:3] == ("zero", "n1", "n2")
    assert space.distance("n2", "n3") == pytest.approx(1 / 6, abs=1e-15)
    for n in (1, 5, 10):
        assert space.distance("zero", f"n{n}") == 1 / n
    assert oracle.members == {"zero"}


def test_convergent_rejects_small():
    with pytest.raises(ValueError):
        convergent_sequence(1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sequence_grid(5, 5, True)[0],
        lambda: sequence_grid(4, 6, False)[0],
        lambda: positive_integers(30, "d1")[0],
        lambda: positive_integers(30, "d2")[0],
        lambda: convergent_sequence(30)[0],
    ],
)
def test_generated_spaces_satisfy_axioms(make):
    space = make()
    assert verify_metric_axioms(space).passed  # by build_space's excess bound
    assert verify_metric_axioms(FiniteSpace(space.ids, space.dist)).passed  # by the full scan


@pytest.mark.parametrize(
    "make",
    [
        lambda: sequence_grid(6, 7, True),
        lambda: positive_integers(40, "d2"),
        lambda: convergent_sequence(40),
    ],
)
def test_regeneration_is_bit_identical(make):
    first, _ = make()
    second, _ = make()
    assert first.ids == second.ids
    assert np.array_equal(first.dist, second.dist)
