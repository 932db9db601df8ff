"""Structure JSON format, canonical dumps, and DOT export.

The on-disk structure format:

    {
      "version": 1,
      "ground_size": <int>,       # at most WIDTH_CAP = 1024
      "carrier": [<fixed-width lowercase hex bit mask>, ...],
      "zero": 0,
      "contact": [[i, j], ...],   # related unordered nonzero pairs, i < j;
                                  # reflexive pairs are implied and omitted
      "roles": {"name": index}    # optional named elements
    }

Hex masks keep files diff-friendly and width-agnostic.  Exports are canonical
(sorted keys, sorted pair list, two-space indent, trailing newline), so a
round trip is byte-exact and files can be compared directly.

``canonical_dumps(x)`` is ``json.dumps(x, indent=2, sort_keys=True)`` plus
a newline, byte for byte, but written directly (with ``indent``, Python
3.11's ``json`` runs its pure-Python encoder): one function appends the
pieces to a list, which is joined once.  It makes
``json.encoder._make_iterencode``'s type checks in their order, encodes
strings with ``encode_basestring_ascii``, sorts each object's items with
``sorted(d.items())``, converts non-string keys as ``json`` does, writes ints
with ``int.__repr__`` and floats as ``json`` does, ``NaN`` and ``±Infinity``
included.  A member that is already text (``CanonicalText``) is written in
place at whatever depth it sits, re-indented with one ``replace``: strings
are escaped, so its only raw newlines are indentation.  A circular value is
not detected and raises ``RecursionError``, where ``json`` raises
``ValueError``.

``structure_dumps(cs, roles)`` is, byte for byte,
``canonical_dumps(structure_to_json(cs, roles))``; the writer takes the
contact list's pieces from the relation rows instead of a pair list: each
row's partners above its own index are picked from the row's bit string in C
and joined with the pair template.  A certificate
hashes that text (``structure_sha256``) and embeds the same text, so its
structure is formatted once.  ``loaded_structure_dumps`` writes a loaded
payload's text the same way, from the rows and the payload's other fields,
when the certificate is verified: the loader accepts only the one pair list
the rows determine, so the text is ``canonical_dumps`` of the payload as
read, and ``matches_canonical_construction`` compares those fields and rows
with a structure's own.

Indices, counts, ``zero`` and the version are plain ints (``type(v) is
int``, as the writer has it): JSON ``true``, ``false`` and floats are
refused, naming the field.

``structure_from_json`` validates the contact list and builds the relation
rows in one pass: each pair is type- and range-checked, compared with the
previous pair for strict ascent (sorted and unique), and OR-ed into its two
rows.  An order error is reported only after every pair has passed the
per-pair checks, so the first error named is the same as a two-pass check's.
"""

from __future__ import annotations

import json
import hashlib
import re
from itertools import compress
from json.encoder import INFINITY as _INFINITY
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

from .core import (
    WIDTH_CAP,
    ContactRelation,
    ContactStructure,
    FiniteJoinSemilattice,
    iter_bits,
)

SCHEMA_VERSION = 1
_HEX = re.compile(r"^[0-9a-f]+$")
_int_repr, _float_repr = int.__repr__, float.__repr__


class SchemaError(ValueError):
    """Input file violates the structure or certificate schema."""


def _hex_digits(ground_size: int) -> int:
    return max(1, (ground_size + 3) // 4)


def mask_to_hex(mask: int, ground_size: int) -> str:
    return f"{mask:0{_hex_digits(ground_size)}x}"


def canonical_dumps(payload: Any) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, with
    each ``CanonicalText`` member written in place, re-indented."""
    return _text(payload)


def _text(payload: Any) -> str:
    # ``canonical_dumps`` under a private name, for the structure writers:
    # ``bench/tracer.py`` wraps the public one and counts the bytes of every
    # text it returns, which are the texts the commands write.
    out: list[str] = []
    _write(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _float_text(value: float) -> str:
    """``json``'s text for a float, with its spellings of the specials."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return _float_repr(value)


def _write(value: Any, out: list[str], indent: str) -> None:
    """Append to ``out`` the pieces of ``value``'s indented JSON, for a value
    whose line starts with ``indent`` (a newline and two spaces per level).
    The type checks are ``json.encoder._make_iterencode``'s, in its order."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(_int_repr(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "," + inner
        head = "[" + inner
        for item in value:
            out.append(head)
            head = separator
            _write(item, out, inner)
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "," + inner
        head = "{" + inner
        for key, item in sorted(value.items()):
            if isinstance(key, str):
                pass
            elif isinstance(key, float):
                key = _float_text(key)
            elif key is True:
                key = "true"
            elif key is False:
                key = "false"
            elif key is None:
                key = "null"
            elif isinstance(key, int):
                key = _int_repr(key)
            else:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}"
                )
            out.append(head + _encode_str(key) + ": ")
            head = separator
            _write(item, out, inner)
        out.append(indent + "}")
    elif type(value) is CanonicalText:
        out.append(value.text[:-1].replace("\n", indent))
    elif type(value) is _ContactRows:
        out += _contact_pieces(value.rows, indent)
    else:
        raise TypeError(
            f"Object of type {value.__class__.__name__} is not JSON serializable"
        )


class CanonicalText:
    """``canonical_dumps`` output (final newline included) standing for the
    value it encodes: ``canonical_dumps`` writes it in place, re-indented to
    the depth where it sits, instead of encoding that value again."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class _ContactRows:
    """Relation rows standing for their ``"contact"`` pair list, which the
    writer takes from ``_contact_pieces``."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[int, ...]) -> None:
        self.rows = rows


# bin() digits to compress() selectors: b"0" -> 0 (skip), b"1" -> 1 (keep).
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


_names: list[str] = []


def _index_names(size: int) -> list[str]:
    """``str(k)`` for at least every k < size, kept for the next call: a
    small structure's names cost a slice instead of a str() per index."""
    global _names
    names = _names
    if len(names) < size:
        names = _names = list(map(str, range(max(size, 64))))
    return names


def _contact_pieces(rows: tuple[int, ...], indent: str) -> list[str]:
    """The encoded ``"contact"`` list of ``structure_to_json`` for ``rows``,
    for a value whose line starts with ``indent``, in pieces to be joined."""
    inner, deeper = indent + "  ", indent + "    "
    # Pair [i, j] is "[" deeper i "," deeper j inner "]"; a comma and inner
    # part it from the next pair.
    between = inner + "]," + inner + "[" + deeper
    names = _index_names(len(rows))
    pieces = ["[" + inner + "[" + deeper]
    for i, row in enumerate(rows):
        above = row >> (i + 1)
        if above:
            # Row i's partners j > i, read off its bit string in C.
            head = names[i] + "," + deeper
            selectors = bin(above)[:1:-1].encode().translate(_SELECTORS)
            partners = compress(names[i + 1 :], selectors)
            pieces += head, (between + head).join(partners), between
    if len(pieces) == 1:
        return ["[]"]
    pieces[-1] = inner + "]" + indent + "]"
    return pieces


def _structure_dumps(fields: dict[str, Any], rows: tuple[int, ...]) -> str:
    """``canonical_dumps`` of ``fields`` (no ``"contact"``) plus the contact
    list of ``rows``."""
    return _text({**fields, "contact": _ContactRows(rows)})


def structure_dumps(cs: ContactStructure, roles: dict[str, int] | None = None) -> str:
    """``canonical_dumps(structure_to_json(cs, roles))``, written from the
    relation rows."""
    return _structure_dumps(structure_fields(cs.lattice, roles), cs.contact.rows)


def loaded_structure_dumps(raw: dict[str, Any], cs: ContactStructure) -> str:
    """``canonical_dumps(raw)`` for a payload that ``structure_from_json``
    loaded as ``cs``, with the contact list written from the rows: the loader
    accepts only the sorted, duplicate-free ``i < j`` list they determine."""
    return _structure_dumps(_loaded_fields(raw), cs.contact.rows)


def matches_canonical_construction(
    raw: dict[str, Any],
    loaded: ContactStructure,
    cs: ContactStructure,
    roles: dict[str, int] | None,
) -> bool:
    """Whether ``raw``, a payload that ``structure_from_json`` loaded as
    ``loaded``, equals ``structure_to_json(cs, roles)``, without building its
    pair list (1.4M pairs for the level-6 separator).  The loader takes only
    plain ints and the one pair list the rows determine, so the fields and
    the rows decide it exactly."""
    return (_loaded_fields(raw), loaded.contact.rows) == (
        structure_fields(cs.lattice, roles),
        cs.contact.rows,
    )


def _loaded_fields(raw: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in raw.items() if key != "contact"}


def structure_fields(
    lattice: FiniteJoinSemilattice, roles: dict[str, int] | None
) -> dict[str, Any]:
    """Every field of a structure's payload but ``"contact"``: the lattice's
    fields and the roles.  One format spec serves every carrier element."""
    spec = f"0{_hex_digits(lattice.width)}x"
    fields: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "ground_size": lattice.width,
        "carrier": [format(bits, spec) for bits in lattice.carrier],
        "zero": 0,
    }
    if roles is not None:
        fields["roles"] = {name: roles[name] for name in sorted(roles)}
    return fields


def contact_pairs(rows: tuple[int, ...]) -> list[list[int]]:
    """The ``"contact"`` field of relation rows: [i, j] per related pair
    i < j, ascending."""
    return [
        [i, i + 1 + j] for i, row in enumerate(rows) for j in iter_bits(row >> (i + 1))
    ]


def structure_to_json(
    cs: ContactStructure, roles: dict[str, int] | None = None
) -> dict[str, Any]:
    return {**structure_fields(cs.lattice, roles), "contact": contact_pairs(cs.contact.rows)}


def structure_from_json(data: Any) -> tuple[ContactStructure, dict[str, int]]:
    """Parse and validate; raises SchemaError naming the offending field."""
    if not isinstance(data, dict):
        raise SchemaError("structure payload must be a JSON object")
    version = data.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(
            f"version: expected schema version {SCHEMA_VERSION}, got {version!r}"
        )
    ground = data.get("ground_size")
    if type(ground) is not int or ground < 0:
        raise SchemaError(f"ground_size: expected a nonnegative int, got {ground!r}")
    if ground > WIDTH_CAP:
        raise SchemaError(f"ground_size: {ground} exceeds the width cap {WIDTH_CAP}")
    raw_carrier = data.get("carrier")
    if not isinstance(raw_carrier, list) or not raw_carrier:
        raise SchemaError("carrier: expected a nonempty list of hex masks")
    carrier = []
    for pos, item in enumerate(raw_carrier):
        if not isinstance(item, str) or not _HEX.match(item):
            raise SchemaError(f"carrier[{pos}]: expected a lowercase hex string")
        carrier.append(int(item, 16))
    zero = data.get("zero")
    if type(zero) is not int or zero != 0:
        raise SchemaError("zero: the empty set is always carrier index 0")
    try:
        lattice = FiniteJoinSemilattice(ground, tuple(carrier))
    except ValueError as exc:
        raise SchemaError(f"carrier: {exc}") from exc

    rows = _contact_rows(data.get("contact"), lattice.size)

    roles: dict[str, int] = {}
    raw_roles = data.get("roles", {})
    if not isinstance(raw_roles, dict):
        raise SchemaError("roles: expected an object of name -> index")
    for name, idx in raw_roles.items():
        if type(idx) is not int or not 0 <= idx < lattice.size:
            raise SchemaError(f"roles[{name!r}]: index {idx!r} out of range")
        roles[str(name)] = idx

    return ContactStructure(lattice, ContactRelation(lattice.size, rows)), roles


def _contact_rows(raw_contact: Any, size: int) -> tuple[int, ...]:
    """Relation rows of a contact pair list, validated in one pass."""
    if not isinstance(raw_contact, list):
        raise SchemaError("contact: expected a list of index pairs")
    rows = [0] + [1 << k for k in range(1, size)]
    prev_i = prev_j = 0
    disordered = False
    for pos, item in enumerate(raw_contact):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"contact[{pos}]: expected a pair of ints")
        i, j = item
        if not (type(i) is int and type(j) is int):
            raise SchemaError(f"contact[{pos}]: expected a pair of ints")
        if not 0 < i < j < size:
            if 0 < i < size and 0 < j < size:
                raise SchemaError(
                    f"contact[{pos}]: pair [{i}, {j}] must be ascending and irreflexive"
                )
            raise SchemaError(
                f"contact[{pos}]: pair [{i}, {j}] out of range or touching zero"
            )
        if i <= prev_i and (i < prev_i or j <= prev_j):
            disordered = True
        prev_i, prev_j = i, j
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    if disordered:
        raise SchemaError("contact: pairs must be sorted and unique")
    return tuple(rows)


def structure_sha256(payload: dict[str, Any] | str) -> str:
    """SHA-256 of a structure's canonical text, given as its payload or as
    the text itself (``structure_dumps``)."""
    text = payload if type(payload) is str else canonical_dumps(payload)
    return hashlib.sha256(text.encode()).hexdigest()


def load_json_file(path: str) -> Any:
    """Parsed contents of a JSON file; SchemaError if unreadable, not UTF-8,
    nested deeper than the parser's recursion limit, or invalid."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def load_structure_file(path: str) -> tuple[ContactStructure, dict[str, int]]:
    return structure_from_json(load_json_file(path))


# ---------------------------------------------------------------------------
# DOT export


def _cover_edges(lattice: FiniteJoinSemilattice) -> list[tuple[int, int]]:
    edges = []
    for i in range(lattice.size):
        above = lattice.leq_masks[i] & ~(1 << i)
        for j in range(i + 1, lattice.size):
            if not (above >> j) & 1:
                continue
            between = above & lattice.below_masks[j] & ~(1 << j)
            if not between:
                edges.append((i, j))
    return edges


def structure_to_dot(
    cs: ContactStructure, roles: dict[str, int] | None = None
) -> str:
    """Hasse diagram with non-contact pairs dashed; deterministic bytes."""
    lattice = cs.lattice
    names: dict[int, list[str]] = {}
    for name, idx in sorted((roles or {}).items()):
        names.setdefault(idx, []).append(name)
    atoms = set(lattice.atoms())
    lines = ["digraph structure {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    for i, bits in enumerate(lattice.carrier):
        label = mask_to_hex(bits, lattice.width)
        if i in names:
            label += "\\n" + ",".join(names[i])
        style = ' style=filled fillcolor="lightgrey"' if i in atoms else ""
        lines.append(f'  n{i} [label="{label}"{style}];')
    for i, j in _cover_edges(lattice):
        lines.append(f"  n{i} -> n{j};")
    for i, j in cs.contact.noncontact_pairs():
        lines.append(
            f"  n{i} -> n{j} [dir=none, style=dashed, color=red, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def representation_to_dot(rep_payload: Any) -> str:
    """Bipartite element/column incidence of a representation payload."""
    if not isinstance(rep_payload, dict):
        raise SchemaError("payload: expected a representation object")
    columns = rep_payload.get("columns")
    images = rep_payload.get("images")
    if not isinstance(columns, list) or not all(type(m) is int for m in columns):
        raise SchemaError("payload.columns: expected a list of ints")
    if not isinstance(images, list):
        raise SchemaError("payload.images: expected a list of hex masks")
    for pos, img_hex in enumerate(images):
        if not isinstance(img_hex, str) or not _HEX.match(img_hex):
            raise SchemaError(f"payload.images[{pos}]: expected a lowercase hex string")
    lines = ["graph representation {", "  rankdir=LR;", '  node [fontname="monospace"];']
    for x in range(len(images)):
        lines.append(f'  e{x} [label="x{x}", shape=box];')
    for j, m in enumerate(columns):
        lines.append(f'  c{j} [label="m{m}", shape=ellipse];')
    for x, img_hex in enumerate(images):
        img = int(img_hex, 16)
        j = 0
        while img:
            if img & 1:
                lines.append(f"  e{x} -- c{j};")
            img >>= 1
            j += 1
    lines.append("}")
    return "\n".join(lines) + "\n"
