"""Rows of an experiment result as plain dictionaries.

Every experiment result in :mod:`repro.experiments` exposes rows as
dictionaries (via ``as_dict`` on its row objects or a ``rows`` list);
:func:`rows_from_result` extracts them for the Markdown report and the
result store.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

__all__ = ["rows_from_result"]


def rows_from_result(result) -> List[dict]:
    """Extract dict rows from an experiment result object.

    Accepts anything with a ``rows`` attribute whose elements expose
    ``as_dict()``, a ``cells`` attribute likewise, or a plain sequence
    of dicts.
    """
    for attr in ("rows", "cells"):
        items = getattr(result, attr, None)
        if items is not None:
            out = []
            for item in items:
                if isinstance(item, Mapping):
                    out.append(dict(item))
                elif hasattr(item, "as_dict"):
                    out.append(item.as_dict())
                else:
                    raise TypeError(
                        f"{attr} element {type(item).__name__} has no as_dict()"
                    )
            return out
    if isinstance(result, Sequence):
        return [dict(r) for r in result]
    raise TypeError(
        f"cannot extract rows from {type(result).__name__}: expected "
        "'rows', 'cells', or a sequence of mappings"
    )

