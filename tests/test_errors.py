import inspect
import pickle

import pytest

from lidartmc import errors

# Constructor arguments of the errors that take more than a message.
ARGS = {
    errors.MalformedLineError: (7, "bad frame line: boom"),
}

ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


def test_every_error_with_its_own_constructor_has_arguments_here():
    own_init = {cls for cls in ERROR_CLASSES if "__init__" in vars(cls)}
    assert own_init <= set(ARGS)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    err = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)
