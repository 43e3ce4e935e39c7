"""The public API, as one sorted line per name in ``amigram.__all__``.

Each line gives an exception's bases, an enum's members, a value type's
signature, fields, properties and public methods, a function's signature,
or a constant's value.  A change to any of them changes a line of
``tests/api_surface.txt``, so it shows in the diff of the change that made
it.  After an intended change, rewrite the snapshot with

    PYTHONPATH=src python tests/test_api_surface.py
"""

import dataclasses
import enum
import inspect
from pathlib import Path

import amigram

SNAPSHOT = Path(__file__).with_name("api_surface.txt")


def _members(cls: type) -> tuple[list[str], list[str]]:
    """The public properties and methods that ``cls`` or a base defined in
    amigram declares, each method with its signature."""
    properties, methods = [], []
    for name in sorted(dir(cls)):
        owner = next(base for base in cls.__mro__ if name in vars(base))
        if name.startswith("_") or not owner.__module__.startswith("amigram"):
            continue
        attribute = vars(owner)[name]
        if isinstance(attribute, property):
            properties.append(name)
        elif callable(getattr(cls, name)):
            methods.append(f"{name}{inspect.signature(getattr(cls, name))}")
    return properties, methods


def _fields(cls: type) -> list[str]:
    if dataclasses.is_dataclass(cls):
        return [f"{field.name}: {field.type}" for field in dataclasses.fields(cls)]
    return list(cls._fields)  # a NamedTuple


def describe(name: str) -> str:
    value = getattr(amigram, name)
    if isinstance(value, type) and issubclass(value, BaseException):
        bases = ", ".join(base.__name__ for base in value.__bases__)
        return f"{name}: exception({bases})"
    if isinstance(value, type) and issubclass(value, enum.Enum):
        members = ", ".join(f"{member.name}={member.value!r}" for member in value)
        return f"{name}: enum({members})"
    if isinstance(value, type):
        properties, methods = _members(value)
        return (
            f"{name}: class{inspect.signature(value)}"
            f" fields=({', '.join(_fields(value))})"
            f" properties=({', '.join(properties)})"
            f" methods=({', '.join(methods)})"
        )
    if callable(value):
        return f"{name}: function{inspect.signature(value)}"
    return f"{name} = {value!r}"


def surface() -> str:
    return "".join(f"{describe(name)}\n" for name in sorted(amigram.__all__))


def test_api_matches_the_snapshot():
    assert surface() == SNAPSHOT.read_text(), (
        "the public API changed; if that is intended, rewrite the snapshot with"
        " `PYTHONPATH=src python tests/test_api_surface.py` and name the change"
    )


if __name__ == "__main__":
    SNAPSHOT.write_text(surface())
