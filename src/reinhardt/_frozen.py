"""The base class of the package's immutable value types."""

from __future__ import annotations


class Frozen:
    """A value whose fields, named in a subclass's ``__slots__``, are set
    once by its constructor through ``object.__setattr__``.

    Assignment and deletion then raise :class:`AttributeError`.  Two values
    are equal when they have the same class and the same :meth:`_key` (all
    fields unless a subclass narrows it), and equal values hash equal.  The
    repr lists every field: ``Name(field=value, ...)``, with an int too long
    to print in decimal shown in hex.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # copy and pickle restore the slots through here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _shown(value: object) -> str:
    try:
        return repr(value)
    except ValueError:  # an int longer in decimal than sys.get_int_max_str_digits()
        return hex(value)
