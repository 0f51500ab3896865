"""Content-addressed fingerprints for problems, cells, and solver options.

The result cache and the query service key everything by a canonical SHA-256
digest of the *semantic* content of a request: the ranking-attribute matrix
(bit-exact bytes), the given positions, the attribute names, the constraint
set, the tolerances, the method name, and the solver options.  Two problems
built independently from the same data therefore collide on purpose -- that is
what makes the cache content-addressed rather than identity-addressed.

Digests deliberately avoid Python's builtin ``hash`` (randomized per process
via ``PYTHONHASHSEED``) and anything repr-based that could vary across NumPy
versions; floats are serialized through the stdlib JSON encoder (shortest
round-trip repr) and arrays through their raw little-endian bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core import chunking
from repro.core.cells import Cell
from repro.core.problem import RankingProblem
from repro.core.result import jsonable

__all__ = [
    "canonical_json",
    "compute_problem_digest",
    "fingerprint_problem",
    "fingerprint_cell",
    "fingerprint_options",
    "fingerprint",
]


def canonical_json(value) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, sanitized types."""
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def _array_bytes(array: np.ndarray, dtype) -> bytes:
    """Shape-prefixed, dtype-normalized, contiguous little-endian bytes."""
    array = np.ascontiguousarray(array, dtype=dtype)
    if array.dtype.byteorder == ">":  # pragma: no cover - big-endian platforms
        array = array.astype(array.dtype.newbyteorder("<"))
    return repr(array.shape).encode() + array.tobytes()


def _hash_matrix(h, matrix: np.ndarray) -> None:
    """Feed a matrix into ``h`` as float64 bytes, in bounded-memory blocks.

    Emits the exact byte stream of ``_array_bytes(matrix, np.float64)`` --
    the full shape prefix, then row-major little-endian float64 bytes -- but
    normalizes row blocks one at a time, so hashing a memory-mapped or
    float32 million-row matrix never materializes the full float64 copy.
    Digests are unchanged for every existing problem.
    """
    h.update(repr(matrix.shape).encode())
    n = matrix.shape[0]
    row_bytes = max(int(np.prod(matrix.shape[1:], dtype=np.int64)) * 8, 1)
    rows = chunking.chunk_rows_for(row_bytes, n, None)
    if rows < n:
        chunking.record_chunked_eval(rows * row_bytes)
    for start in range(0, n, rows):
        block = np.ascontiguousarray(matrix[start : start + rows], dtype=np.float64)
        if block.dtype.byteorder == ">":  # pragma: no cover - big-endian
            block = block.astype(block.dtype.newbyteorder("<"))
        h.update(block.tobytes())


def compute_problem_digest(problem: RankingProblem) -> str:
    """Compute the raw SHA-256 digest of a problem (no memoization).

    The memo lives on the :class:`RankingProblem` instance itself (see
    :meth:`RankingProblem.fingerprint`): computed once, invalidated never --
    the instance is immutable by convention, and an instance attribute beats
    a side-table both on lookup cost and on lifetime management.
    """
    h = hashlib.sha256()
    h.update(b"matrix:")
    _hash_matrix(h, problem.matrix)
    h.update(b"positions:")
    h.update(_array_bytes(problem.ranking.positions, np.int64))
    h.update(b"attributes:")
    h.update(canonical_json(problem.attributes).encode())
    h.update(b"constraints:")
    h.update(canonical_json(problem.constraints.to_dict()).encode())
    h.update(b"tolerances:")
    h.update(canonical_json(problem.tolerances.to_dict()).encode())
    return h.hexdigest()


def fingerprint_problem(problem: RankingProblem) -> str:
    """Stable digest of everything that influences a solve on this problem.

    Non-ranking columns (player names, institution names) are excluded: they
    cannot change any solver's output, and excluding them lets semantically
    identical problems share cache entries.  The digest is memoized on the
    problem object -- the service front-end fingerprints every incoming
    request on the event loop, so repeat submissions of the same problem
    must not re-hash the full matrix.
    """
    return problem.fingerprint()


def fingerprint_cell(cell: Cell) -> str:
    """Stable digest of a weight-space cell."""
    h = hashlib.sha256()
    h.update(b"cell:")
    h.update(_array_bytes(cell.lower, np.float64))
    h.update(_array_bytes(cell.upper, np.float64))
    return h.hexdigest()


def fingerprint_options(options) -> str:
    """Canonical JSON of a solver-options object (or plain params mapping).

    Options *objects* are tagged with their module-qualified class name: two
    different methods' options dataclasses can serialize to identical dicts
    (both the exact solver and TREE have a ``node_limit`` / ``time_limit``
    surface), and without the tag such requests would collide
    in the content-addressed cache.  The module prefix matters because
    plugin methods registered at runtime may reuse a class name.  Plain
    mappings are the registry's wire format, where the method name (hashed
    separately by :func:`fingerprint`) carries the identity instead.
    """
    if options is None:
        return "null"
    if hasattr(options, "to_dict"):
        tag = f"{type(options).__module__}.{type(options).__qualname__}"
        return tag + ":" + canonical_json(options.to_dict())
    return canonical_json(options)


def fingerprint(
    problem: RankingProblem,
    method: str = "",
    options=None,
    cell: Cell | None = None,
) -> str:
    """Digest of a full solve request: problem + method + options (+ cell)."""
    h = hashlib.sha256()
    h.update(b"problem:")
    h.update(fingerprint_problem(problem).encode())
    h.update(b"method:")
    h.update(method.encode())
    h.update(b"options:")
    h.update(fingerprint_options(options).encode())
    if cell is not None:
        h.update(b"cell:")
        h.update(fingerprint_cell(cell).encode())
    return h.hexdigest()
