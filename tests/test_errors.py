"""Package exceptions survive pickling, which is how a worker process
hands its failure back to the parent."""

import pickle

import pytest

from dosedistill import errors

CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
    and cls.__module__ == errors.__name__
]


def test_every_class_is_listed():
    assert len(CLASSES) == 5


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    exc = cls("loss became nan")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) == "loss became nan"
    assert back.args == exc.args
    assert vars(back) == vars(exc)
