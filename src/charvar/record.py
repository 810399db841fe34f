"""The immutable-record protocol of the records that keep derived data.

Such a record cannot be a ``namedtuple``: its ``__init__`` stores the
fields with ``self.__dict__.update``, and ``_compared`` names, in order,
the fields that equality and hashing read.  The others (a label, a basis,
kept coordinates) are carried but not compared.
"""


class Record:
    """Immutable; equal to a record of its own class with equal ``_compared`` fields."""

    _compared: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
