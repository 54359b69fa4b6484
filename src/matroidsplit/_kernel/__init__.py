"""Kernel backend selection: pure.py's API, with compiled functions on top.

Every name in ``pure.__all__`` is bound from ``pure.py`` first.  Unless
``MATROIDSPLIT_PURE`` is set, the C extension ``_speed.c``, when built, then
rebinds the per-candidate functions it compiles, the compiled subset:
``rref``, ``nullspace_basis``, ``space_min_supports``, ``delete_rows``,
``contract_rows``, ``profile_present``, ``find_minors``, ``canon_key_cols``
and ``is_canonical``.  The rest (``rank``, ``rank_masked``, ``cols_rank``,
``in_rowspace``, ``columns``, ``profile``, ``profile_images``) is served by
``pure.py`` on both backends.  Both ``space_min_supports`` refuse a span of
more than 20 basis vectors, the one bound on circuit and cocircuit
enumeration.
``BACKEND`` names the module that loaded last ("compiled" or "pure").
Callers look these names up here at call time, so wrapping a module
attribute traces every call, except the minor searches for patterns above
rank 6: the compiled canonical forms stop there, so ``matroid`` takes those
from ``pure`` directly.
"""

from __future__ import annotations

import os

from . import pure
from .pure import *  # noqa: F401,F403

if not os.environ.get("MATROIDSPLIT_PURE"):
    try:
        from . import _speed
    except ImportError:
        pass
    else:
        globals().update((name, getattr(_speed, name))
                         for name in pure.__all__ if hasattr(_speed, name))
