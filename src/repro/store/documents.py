"""Document helpers: validation, deep copies, dotted-path access.

Documents are plain dicts.  The store hands its callers no references
to its internal state — every read and every returned after-image is a
deep copy, so callers cannot mutate stored documents behind the store's
back (the isolation a real out-of-process database gives for free).
Only write listeners see a stored document, and must not mutate it.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

from repro.errors import InvalidDocumentError
from repro.types import PRIMARY_KEY, Document

_SCALARS = (str, int, float, bool, type(None))
_EXACT_SCALARS = frozenset(_SCALARS)


def deep_copy(value: Any) -> Any:
    """Deep-copy a JSON-like value.

    Hand-rolled instead of :func:`copy.deepcopy` because documents only
    contain dicts, lists and scalars — this is several times faster and
    rejects foreign types early.  A plain ``dict`` or ``list`` is copied
    in C and only its container values are copied in Python; a tuple
    becomes a list, and a subclass a plain dict or list.
    """
    kind = type(value)
    if kind is dict:
        copy = value.copy()
        for key, item in copy.items():
            if type(item) not in _EXACT_SCALARS:
                copy[key] = deep_copy(item)
        return copy
    if kind is list:
        copy = value[:]
        for index, item in enumerate(copy):
            if type(item) not in _EXACT_SCALARS:
                copy[index] = deep_copy(item)
        return copy
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {key: deep_copy(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [deep_copy(item) for item in value]
    raise InvalidDocumentError(f"unsupported value type in document: {type(value)}")


def validate_value(value: Any, context: Any) -> None:
    """Recursively validate a document value.

    *context* locates *value*: a root label, or a ``(parent, step)``
    link whose step is a field name or a list index.  The walk only
    links; :func:`_render_path` formats the dotted path when raising.
    """
    if isinstance(value, _SCALARS):
        return
    if isinstance(value, dict):
        names_ok = _names_ok(value)
        for key, val in value.items():
            if not names_ok and (
                not isinstance(key, str) or key.startswith("$") or "." in key
            ):
                _reject_field_name(key, context)
            if not isinstance(val, _SCALARS):
                validate_value(val, (context, key))
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            if not isinstance(item, _SCALARS):
                validate_value(item, (context, index))
        return
    raise InvalidDocumentError(
        f"unsupported value type {type(value).__name__} under "
        f"{_render_path(context)}"
    )


def _names_ok(mapping: Any) -> bool:
    """True when every field name of *mapping*, a plain dict, is a
    string without ``$`` or ``.`` (one C-speed join); False asks the
    caller to check the names one by one."""
    if type(mapping) is not dict:
        return False
    try:
        names = "".join(mapping)
    except TypeError:  # a non-string field name
        return False
    return "$" not in names and "." not in names


def _reject_field_name(key: Any, context: Any) -> None:
    """Raise the error for a bad field name *key* under *context*."""
    if not isinstance(key, str):
        raise InvalidDocumentError(
            f"non-string field name {key!r} under {_render_path(context)}"
        )
    if key.startswith("$"):
        raise InvalidDocumentError(
            f"field name {key!r} under {_render_path(context)} "
            f"must not start with '$'"
        )
    if "." in key:
        raise InvalidDocumentError(
            f"field name {key!r} under {_render_path(context)} "
            f"must not contain '.'"
        )


def _render_path(context: Any) -> str:
    """``(("<root>", "a"), 0)`` -> ``"<root>.a[0]"``."""
    steps = []
    while type(context) is tuple:
        context, step = context
        steps.append(f"[{step}]" if type(step) is int else f".{step}")
    steps.append(context)
    return "".join(reversed(steps))


def validate_document(document: Document) -> None:
    """Validate a top-level document: dict shape, field names, ``_id``."""
    _validate_root(document)
    validate_value(document, "<root>")


def validated_copy(document: Document) -> Document:
    """:func:`validate_document` and :func:`deep_copy` in one walk: the
    same errors, and the copy ``deep_copy`` makes."""
    _validate_root(document)
    return _copy_valid(document, "<root>")


def _copy_valid(value: Any, context: Any) -> Any:
    """A deep copy of the container *value*, validated as
    :func:`validate_value` validates it, in the same order."""
    if isinstance(value, dict):
        if not _names_ok(value):
            # The names need a look one by one: the plain walk raises
            # the first error in document order.
            validate_value(value, context)
        copy = value.copy() if type(value) is dict else dict(value.items())
        for key, item in copy.items():
            if type(item) not in _EXACT_SCALARS and not isinstance(item, _SCALARS):
                copy[key] = _copy_valid(item, (context, key))
        return copy
    if isinstance(value, (list, tuple)):
        copy = list(value)
        for index, item in enumerate(copy):
            if type(item) not in _EXACT_SCALARS and not isinstance(item, _SCALARS):
                copy[index] = _copy_valid(item, (context, index))
        return copy
    raise InvalidDocumentError(
        f"unsupported value type {type(value).__name__} under "
        f"{_render_path(context)}"
    )


def _validate_root(document: Document) -> None:
    """The top-level checks: dict shape and ``_id``."""
    if not isinstance(document, dict):
        raise InvalidDocumentError(f"document must be a dict, got {type(document)}")
    if PRIMARY_KEY not in document:
        raise InvalidDocumentError(f"document is missing {PRIMARY_KEY!r}")
    key = document[PRIMARY_KEY]
    if isinstance(key, bool) or not isinstance(key, (str, int, float)):
        raise InvalidDocumentError(
            f"{PRIMARY_KEY!r} must be a string or number, got {type(key)}"
        )


def get_path(document: Document, path: str, default: Any = None) -> Any:
    """Return the value at dotted *path*, or *default* when absent.

    Unlike the query matcher this performs no array fan-out; list
    segments must be addressed by numeric index.
    """
    current: Any = document
    for part in path.split("."):
        if isinstance(current, dict) and part in current:
            current = current[part]
        elif (
            isinstance(current, (list, tuple))
            and part.isdigit()
            and int(part) < len(current)
        ):
            current = current[int(part)]
        else:
            return default
    return current


def set_path(document: Document, path: str, value: Any) -> None:
    """Set dotted *path* to *value*, creating intermediate objects."""
    parts = path.split(".")
    current: Any = document
    for part in parts[:-1]:
        if isinstance(current, dict):
            nxt = current.get(part)
            if not isinstance(nxt, (dict, list)):
                nxt = {}
                current[part] = nxt
            current = nxt
        elif isinstance(current, list) and part.isdigit():
            current = current[int(part)]
        else:
            raise InvalidDocumentError(f"cannot descend into {part!r} of {path!r}")
    last = parts[-1]
    if isinstance(current, dict):
        current[last] = value
    elif isinstance(current, list) and last.isdigit():
        current[int(last)] = value
    else:
        raise InvalidDocumentError(f"cannot set {last!r} of {path!r}")


def iter_paths(document: Document, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """Yield every ``(dotted_path, scalar_value)`` pair of *document*."""
    for key, value in document.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from iter_paths(value, path)
        else:
            yield path, value
