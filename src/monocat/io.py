"""JSON encoding of bases, modules, morphisms, quivers, representations and
enumeration reports.  Serialization is deterministic: keys are sorted and
coefficients are little-endian digit arrays."""

from __future__ import annotations

import json
from typing import Optional

from .base import SerialBase, base_from_descriptor
from .enumerate import EnumerationReport
from .quiver import Quiver, _field, quiver_from_descriptor
from .rep import Representation
from .serialmod import SerialModule, SerialMorphism, morphism, serial_module


def module_to_json(m: SerialModule) -> dict:
    return {"parts": list(m.parts)}


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               (str, dict): "a name or an object"}


def _expect(value, kind, what: str):
    """``value`` if it has the JSON type ``kind``, else ValueError naming ``what``.
    A JSON boolean is not an integer, though Python's ``bool`` is an ``int``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")
    return value


def _keys_in(data: dict, names, kind: str) -> dict:
    """``data`` if each of its keys is the name of a ``kind`` (vertex or
    arrow) among ``names``, else ValueError."""
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"keys {unknown} name no {kind} of the quiver")
    return data


def module_from_json(base: SerialBase, data: dict, what: str = "module") -> SerialModule:
    """The module of ``data``; ``what`` names it in errors (say, the vertex)."""
    parts = _expect(_field(_expect(data, dict, what), "parts", what), list, f"{what} parts")
    for label in parts:
        _expect(label, str, f"{what} part label")
    return serial_module(base, parts)


def morphism_to_json(f: SerialMorphism) -> dict:
    entries = []
    for row in f.entries:
        entries.append([None if e.is_zero() else {"coeff": list(e.digits)} for e in row])
    return {"entries": entries}


def morphism_from_json(source: SerialModule, target: SerialModule, data: Optional[dict],
                       what: str = "map") -> SerialMorphism:
    """The map of ``data`` (None: zero); ``what`` names it in errors (say, the arrow)."""
    base = source.base
    zero = base.ring.zero
    rows = []
    raw = [] if data is None else _expect(_expect(data, dict, what).get("entries", []),
                                          list, f"{what} entries")
    if len(raw) > target.rank:
        raise ValueError(f"{what} has {len(raw)} entry rows for {target.rank} target parts")
    for i in range(target.rank):
        row_data = _expect(raw[i], list, f"{what} entry row") if i < len(raw) else []
        if len(row_data) > source.rank:
            raise ValueError(f"{what} entry row {i} has {len(row_data)} cells "
                             f"for {source.rank} source parts")
        row = []
        for j in range(source.rank):
            cell = row_data[j] if j < len(row_data) else None
            row.append(zero if cell is None
                       else _coeff_from_json(base.ring, cell, f"{what} entry ({i}, {j})"))
        rows.append(row)
    return morphism(source, target, rows)


def _coeff_from_json(ring, cell, what: str):
    digits = _expect(_field(_expect(cell, dict, what), "coeff", what), list, f"{what} coefficient")
    if len(digits) != ring.n:
        raise ValueError(f"{what} coefficient needs {ring.n} digits, got {len(digits)}")
    for d in digits:
        _expect(d, int, f"{what} coefficient digit")
        if not 0 <= d < ring.p:
            raise ValueError(f"{what} coefficient digit {d} is outside [0, {ring.p})")
    return ring.elem(digits)


def representation_to_json(r: Representation) -> dict:
    return {
        "base": r.base.descriptor(),
        "quiver": r.quiver.descriptor(),
        "modules": {v: module_to_json(r.modules[v]) for v in r.quiver.vertices},
        "maps": {a.name: morphism_to_json(r.maps[a.name]) for a in r.quiver.arrows},
    }


def vertex_modules_from_json(data: dict, base: Optional[SerialBase] = None,
                             quiver: Optional[Quiver] = None):
    """(base, quiver, module at every vertex) of a document; a base or quiver
    passed in replaces the document's, and absent vertices get zero modules.
    A module key that names no vertex is a ValueError."""
    base = base or base_from_descriptor(_expect(_field(data, "base", "document"), dict,
                                                "base descriptor"))
    quiver = quiver or quiver_from_descriptor(_expect(_field(data, "quiver", "document"),
                                                      (str, dict), "quiver descriptor"))
    module_data = _keys_in(_expect(data.get("modules", {}), dict, "modules"),
                           quiver.vertices, "vertex")
    modules = {
        v: module_from_json(base, module_data.get(v, {"parts": []}), f"module at vertex {v}")
        for v in quiver.vertices
    }
    return base, quiver, modules


def representation_from_json(data: dict, base: Optional[SerialBase] = None,
                             quiver: Optional[Quiver] = None) -> Representation:
    _expect(data, dict, "representation")
    base, quiver, modules = vertex_modules_from_json(data, base, quiver)
    map_data = _keys_in(_expect(data.get("maps", {}), dict, "maps"),
                        [a.name for a in quiver.arrows], "arrow")
    maps = {}
    for a in quiver.arrows:
        maps[a.name] = morphism_from_json(
            modules[a.source], modules[a.target], map_data.get(a.name), f"map of arrow {a.name}"
        )
    return Representation(quiver, base, modules, maps)


def report_to_json(report: EnumerationReport) -> dict:
    return {
        "base": report.base.descriptor(),
        "quiver": report.quiver.descriptor(),
        "caps": report.caps,
        "counts": report.counts,
        "classes": [
            {"representation": representation_to_json(r), "certificate": c}
            for r, c in report.classes
        ],
    }


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
