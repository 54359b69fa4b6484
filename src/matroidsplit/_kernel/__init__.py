"""Kernel backend selection: pure.py's API, with compiled functions on top.

Every name in ``pure.__all__`` is bound from ``pure.py`` first.  Unless
``MATROIDSPLIT_PURE`` is set, the C extension ``_speed.c``, when built, then
rebinds the per-candidate functions it compiles, the compiled subset:
``rref``, ``nullspace_basis``, ``space_min_supports``, ``delete_rows``,
``contract_rows``, ``profile_present``, ``find_minors``, ``canon_key_cols``
and ``is_canonical``.  The rest (``rank``, ``rank_masked``, ``cols_rank``,
``columns``, ``profile``, ``profile_images``, ``splitting_counts``) is
served by ``pure.py`` on both backends; ``splitting_counts`` answers the F
and M(K4) questions of every splitting of one matroid from one walk over
its dual, and proves it there.  Each kernel has one canonical-form walk
(``pure._gl_walk``, ``gl_dfs``) with three answers: the least image
(``canon_key_cols``), whether some image sorts below a bound
(``is_canonical``), and whether none does while one equals it (a
``KIND_CANONICAL`` match in ``find_minors``).
Both ``space_min_supports`` refuse a span of more than 20 basis vectors,
the one bound on circuit and cocircuit enumeration.  Pure
``profile_present`` decides F's profile (2, 0, (1, 2, 2)) with loops and
coloops dropped, on the dual when that walk has fewer candidate sets, and
asked for F alone it takes no rank first, one elimination per call; the
compiled one walks the matroid itself, which in C costs less than the dual
walk in Python.
``BACKEND`` names the module that loaded last ("compiled" or "pure").
Callers look these names up here at call time, so wrapping a module
attribute traces every call, except canonical forms above rank 6: the
compiled ones stop there, so ``matroid._canon_kernel`` takes ``pure`` for
the one isomorphism key, ``matroid.canonical_key``, and its scans.
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
