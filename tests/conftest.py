import pytest

from ptcircle import transition


@pytest.fixture(scope="session")
def first_two_folds():
    return transition.critical_sequence(2)


@pytest.fixture(scope="session")
def five_folds():
    return transition.critical_sequence(5)


@pytest.fixture(scope="session")
def sixteen_folds():
    return transition.critical_sequence(16)
