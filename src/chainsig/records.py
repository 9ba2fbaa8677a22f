"""Immutable records that check their values on every construction path.

chainsig's records are `typing.NamedTuple` classes, which cost far
less to define than `dataclasses` and need no `inspect`. A record that
validates is a subclass of its NamedTuple and of `Validated`, listed
first, with `__slots__ = ()` and a `_check` method.
"""

from __future__ import annotations

from typing import Iterable


class Validated:
    """Runs the record's `_check` when it is built: by the class, `_make` or `_replace`."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "Validated":
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "Validated":
        # NamedTuple's own _make, which _replace calls, builds with
        # tuple.__new__ and would skip _check
        return cls(*iterable)

    def _check(self) -> None:
        raise NotImplementedError
