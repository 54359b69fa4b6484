"""Kernel backend selection: compiled extension when available, else pure.

Set ``MATROIDSPLIT_PURE=1`` to force the pure-Python backend.  The active
backend name is exposed as ``BACKEND`` ("compiled" or "pure").
"""

from __future__ import annotations

import os

if os.environ.get("MATROIDSPLIT_PURE"):
    from . import pure as _impl
else:
    try:
        from . import _speed as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import pure as _impl

BACKEND = _impl.BACKEND
KIND_SIMPLE_RANK3 = _impl.KIND_SIMPLE_RANK3
KIND_PROFILE = _impl.KIND_PROFILE
KIND_CANONICAL = _impl.KIND_CANONICAL

rank = _impl.rank
rank_masked = _impl.rank_masked
rref = _impl.rref
rref_pivots = _impl.rref_pivots
in_rowspace = _impl.in_rowspace
nullspace_basis = _impl.nullspace_basis
space_min_supports = _impl.space_min_supports
columns = _impl.columns
rows_from_columns = _impl.rows_from_columns
delete_rows = _impl.delete_rows
contract_rows = _impl.contract_rows
profile = _impl.profile
cols_rank = _impl.cols_rank
find_minors = _impl.find_minors
canon_key_cols = _impl.canon_key_cols
is_canonical = _impl.is_canonical
