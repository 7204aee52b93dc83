"""Instrumented shared memory.

A :class:`SharedObject` is a heap object whose field accesses are logged
when performed through ``ctx.read``/``ctx.write`` — the analogue of the
paper's Dalvik-interpreter instrumentation, which logs object field
accesses by application code.  Accesses through ``ctx.read_silent`` /
``ctx.write_silent`` bypass logging, modeling native (C/C++) code that the
Trace Generator cannot observe.

Memory-location naming is ``Class@serial.field``; the per-class field
identity (``Class.field``) is what Table 2's "Fields" column counts.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class SharedObject:
    """A heap-allocated object with instrumented fields."""

    def __init__(self, env, class_name: str, **initial_fields):
        self.class_name = class_name
        self.serial = env.ids.serial("obj:" + class_name)
        self._values: Dict[str, Any] = dict(initial_fields)
        # One string per field: every logged access shares it.
        self._locations: Dict[str, str] = {}

    @property
    def location_base(self) -> str:
        return "%s@%d" % (self.class_name, self.serial)

    def location_of(self, field: str) -> str:
        location = self._locations.get(field)
        if location is None:
            location = self._locations[field] = "%s.%s" % (self.location_base, field)
        return location

    def raw_read(self, field: str) -> Any:
        return self._values.get(field)

    def raw_write(self, field: str, value: Any) -> None:
        self._values[field] = value

    def fields(self):
        return list(self._values)

    def __repr__(self) -> str:
        return "SharedObject(%s)" % self.location_base
