"""LSH index: random-hyperplane signatures over multiple hash tables.

Each table hashes a vector to a ``num_bits``-bit signature via the signs of
``num_bits`` random-hyperplane projections (Charikar's SimHash family, applied
to Euclidean search as a candidate generator).  A query gathers the union of
its exact-signature buckets across all tables and re-ranks those candidates
with exact distances, so returned distances are always true squared L2 — only
*which* neighbours are found is approximate.

Buckets are stored implicitly: per table the signatures are kept sorted
(with the permutation that sorts them), so one ``searchsorted`` pair finds a
bucket without any dict-of-lists bookkeeping, and incremental adds just mark
the sort dirty.  Recall depends on data and parameters; fewer bits → bigger
buckets → higher recall and cost.  The signature width is capped at
``log2(n / 8)`` — so small pools keep usefully occupied buckets instead of
hashing every vector into its own empty cell — and re-derived as the pool
grows: when adds push the target width past the built one, the table is
re-hashed under wider planes (LSH's analogue of IVF re-training), keeping the
scanned fraction bounded instead of degenerating to a full scan.
Deterministic under the seed (hyperplanes are re-drawn from it at each
(re)build).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import VectorIndexError
from .base import (
    VectorIndex,
    as_matrix,
    as_queries,
    pad_hits,
    register_backend,
    topk_hits,
)
from .distances import pairwise_sq_distances, squared_norms

__all__ = ["LSHIndex"]


@register_backend
class LSHIndex(VectorIndex):
    """Random-hyperplane LSH with exact re-ranking of bucket candidates."""

    backend = "lsh"

    def __init__(self, num_tables: int = 8, num_bits: int = 12, seed: int = 0) -> None:
        super().__init__(seed=seed)
        if num_tables < 1:
            raise VectorIndexError(f"num_tables must be >= 1, got {num_tables}")
        if not 1 <= num_bits <= 62:
            raise VectorIndexError(f"num_bits must be in [1, 62], got {num_bits}")
        self.num_tables = int(num_tables)
        self.num_bits = int(num_bits)
        self._planes = np.empty((self.num_tables, self.num_bits, 0))
        self._vectors = np.empty((0, 0))
        self._sq = np.empty(0)
        self._signatures = np.empty((0, self.num_tables), dtype=np.int64)
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None  # (sigs, orders)

    def __len__(self) -> int:
        return self._vectors.shape[0]

    # ----------------------------------------------------------------- build
    def _capped_bits(self, n: int) -> int:
        """Signature width keeping expected bucket occupancy around 8 vectors;
        ``num_bits`` is the ceiling reached once the pool is large."""
        return min(self.num_bits, max(1, int(np.log2(max(2, n // 8)))))

    def build(self, vectors: np.ndarray) -> None:
        """Draw hyperplanes for the pool size and signature every vector."""
        matrix = as_matrix(vectors)
        self._dim = -1
        self._set_dim(matrix.shape[1])
        rng = np.random.default_rng(self.seed)
        bits = self._capped_bits(matrix.shape[0])
        self._planes = rng.standard_normal((self.num_tables, bits, matrix.shape[1]))
        self._vectors = matrix.copy()
        self._sq = squared_norms(self._vectors)
        self._signatures = self._sign(matrix)
        self._sorted = None

    def add(self, vectors: np.ndarray) -> None:
        """Append and signature ``vectors``; re-hashes when the pool outgrows
        the built signature width."""
        matrix = as_matrix(vectors, dim=None if self._dim < 0 else self._dim)
        if len(self) == 0:
            self.build(matrix)
            return
        self._vectors = np.vstack([self._vectors, matrix])
        if self._capped_bits(self._vectors.shape[0]) != self._planes.shape[1]:
            # The pool outgrew the built signature width: re-hash everything
            # under wider planes so buckets stay small (LSH's re-training).
            self.build(self._vectors)
            return
        self._sq = np.concatenate([self._sq, squared_norms(matrix)])
        self._signatures = np.vstack([self._signatures, self._sign(matrix)])
        self._sorted = None

    def _sign(self, matrix: np.ndarray) -> np.ndarray:
        """(n, num_tables) integer signatures of ``matrix`` under every table."""
        weights = 1 << np.arange(self._planes.shape[1], dtype=np.int64)
        signatures = np.empty((matrix.shape[0], self.num_tables), dtype=np.int64)
        for table in range(self.num_tables):
            bits = matrix @ self._planes[table].T > 0.0
            signatures[:, table] = bits @ weights
        return signatures

    def _sorted_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-table sorted signatures + sorting permutations (lazy, cached)."""
        if self._sorted is None:
            orders = np.argsort(self._signatures, axis=0, kind="stable")
            sigs = np.take_along_axis(self._signatures, orders, axis=0)
            self._sorted = (sigs, orders)
        return self._sorted

    # ---------------------------------------------------------------- search
    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` over the union of exact-signature buckets, exactly re-ranked."""
        k = self._check_k(k)
        queries = as_queries(queries, max(self._dim, 0) or queries.shape[-1])
        num_queries = queries.shape[0]
        if len(self) == 0:
            return pad_hits(np.empty((num_queries, 0)), np.empty((num_queries, 0), dtype=np.int64), k)

        sigs, orders = self._sorted_tables()
        query_sigs = self._sign(queries)
        lows = np.empty((num_queries, self.num_tables), dtype=np.int64)
        highs = np.empty((num_queries, self.num_tables), dtype=np.int64)
        for table in range(self.num_tables):
            lows[:, table] = np.searchsorted(sigs[:, table], query_sigs[:, table], side="left")
            highs[:, table] = np.searchsorted(sigs[:, table], query_sigs[:, table], side="right")

        queries_sq = squared_norms(queries)
        out_d = np.full((num_queries, k), np.inf)
        out_i = np.full((num_queries, k), -1, dtype=np.int64)
        for q in range(num_queries):
            buckets = [
                orders[lows[q, t]:highs[q, t], t]
                for t in range(self.num_tables)
                if highs[q, t] > lows[q, t]
            ]
            if not buckets:
                continue
            candidates = np.unique(np.concatenate(buckets))
            block = pairwise_sq_distances(
                queries[q:q + 1],
                self._vectors[candidates],
                points_sq=queries_sq[q:q + 1],
                others_sq=self._sq[candidates],
            )
            ids = candidates[None, :]
            block_d, block_i = topk_hits(block, ids, k)
            width = block_d.shape[1]
            out_d[q, :width] = block_d[0]
            out_i[q, :width] = block_i[0]
        return out_d, out_i
