# src/projpair/_jsontext.py
"""The package's one JSON writer: json.dumps(payload, indent=2,
sort_keys=True) for dict keys of type str, byte for byte, at about the cost
of the compact C encoder.

An indent sends json.dumps to its pure-Python encoder, one generator step per
value. Here the layout and the strings are written in Python, but every
non-string scalar (int, float, bool, None) becomes a NUL placeholder, and all
of them are encoded by one C-encoder call on one list. The encoder writes a
list as "[a, b, c]" and no int, float, bool or null text contains ", ", so
splitting on it gives each scalar's text in order. encode_basestring_ascii
escapes every control character, so no encoded string holds a NUL. Flat
containers of scalars, lists of strings, and lists of flat dicts with equal
keys (table rows) are laid out with no Python call per item.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

_encode_scalars = json.JSONEncoder(check_circular=False).encode
_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = frozenset((int, float, bool, type(None)))
# exact types only: a subclass may sort or compare its own way
_all_str = frozenset((str,)).issuperset
_all_dicts = frozenset((dict,)).issuperset
_SLOT = "\0"


def json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True); a dict key whose type is
    not str, a str subclass included, raises TypeError. Tuples are written as
    lists, a value json.dumps rejects raises TypeError here too, and a
    circular payload exhausts the recursion limit instead of raising
    ValueError."""
    parts: list[str] = []
    scalars: list = []
    _lay_out(payload, "\n", parts, scalars)
    template = "".join(parts)
    if not scalars:
        return template
    texts = _encode_scalars(scalars)[1:-1].split(", ")
    out = template.split(_SLOT)
    woven = [""] * (2 * len(out) - 1)
    woven[::2] = out
    woven[1::2] = texts
    return "".join(woven)


def _lay_out(value, nl: str, parts: list[str], scalars: list) -> None:
    """Append value's text to parts, with a slot for each non-string scalar,
    and the scalars to scalars in the same order; nl is a newline and the
    indent of value's own line."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif isinstance(value, (list, tuple)):
        _lay_out_list(value, nl, parts, scalars)
    elif isinstance(value, dict):
        _lay_out_dict(value, nl, parts, scalars)
    else:  # the encoder rejects what is not a scalar, as json.dumps does
        parts.append(_SLOT)
        scalars.append(value)


def _lay_out_list(items, nl: str, parts: list[str], scalars: list) -> None:
    if not items:
        parts.append("[]")
        return
    inner = nl + "  "
    if _SCALARS.issuperset(map(type, items)):
        parts.append(_repeated(_SLOT, len(items), nl))
        scalars.extend(items)
        return
    if _all_str(map(type, items)):
        parts.append("[" + inner + ("," + inner).join(map(_encode_str, items)) + nl + "]")
        return
    keys = _row_keys(items)
    if keys is not None:
        parts.append(_repeated(_flat_dict(keys, inner), len(items), nl))
        if len(keys) == 1:
            scalars.extend(map(itemgetter(keys[0]), items))
        else:
            scalars.extend(chain.from_iterable(map(itemgetter(*keys), items)))
        return
    parts.append("[" + inner)
    _lay_out(items[0], inner, parts, scalars)
    for item in items[1:]:
        parts.append("," + inner)
        _lay_out(item, inner, parts, scalars)
    parts.append(nl + "]")


def _lay_out_dict(mapping: dict, nl: str, parts: list[str], scalars: list) -> None:
    if not mapping:
        parts.append("{}")
        return
    if not _all_str(map(type, mapping)):
        raise TypeError("json_text writes only dict keys of type str")
    keys = sorted(mapping)
    values = list(map(mapping.__getitem__, keys))
    if _SCALARS.issuperset(map(type, values)):
        parts.append(_flat_dict(keys, nl))
        scalars.extend(values)
        return
    inner = nl + "  "
    sep = "{" + inner
    for key, value in zip(keys, values):
        parts.append(sep + _encode_str(key) + ": ")
        sep = "," + inner
        _lay_out(value, inner, parts, scalars)
    parts.append(nl + "}")


def _repeated(item: str, count: int, nl: str) -> str:
    """The text of a list of count items, each with the text item; nl is a
    newline and the indent of the list's own line."""
    inner = nl + "  "
    return "[" + inner + item + ("," + inner + item) * (count - 1) + nl + "]"


def _flat_dict(keys: list[str], nl: str) -> str:
    """The text of a dict with these sorted str keys whose values are all
    slots; nl is a newline and the indent of the dict's own line."""
    inner = nl + "  "
    return "{" + inner + (": " + _SLOT + "," + inner).join(map(_encode_str, keys)) \
        + ": " + _SLOT + nl + "}"


def _row_keys(rows) -> list[str] | None:
    """The sorted keys of rows if every row is a non-empty dict with the
    same str keys as the first and only scalar values, else None."""
    first = rows[0]
    if not (_all_dicts(map(type, rows)) and first and _all_str(map(type, first))):
        return None
    keys = first.keys()
    if not all(map(keys.__eq__, map(dict.keys, rows))):
        return None
    if not _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, rows)))):
        return None
    return sorted(keys)

