"""The subscriber's community state after an aggregate sync.

:class:`CommunitySnapshot` is one rank's view after the pull: the sync's
compact label index ``labels, cidx`` (equal to ``np.unique(comm_of,
return_inverse=True)``) plus ``sigma_tot`` / size / local-member columns
indexed by compact id, and every row's neighbour-community sums from the
sync's CSR scan, which the next vectorized sweep turns into gains.  The
sync is its only writer, and any write to ``comm_of`` invalidates it, so a
reader gathers by compact id and never searches for a label.

The owner side of the sync keeps no Python table: the C owner phase
(``sync_owner`` in ``_kernels.c``, behind
:meth:`repro.core.native.LevelKernels.owner`) numbers the received labels
in order of first arrival, the insertion order of the seed's
``dict[int, list[float]]``, and sums each column sequentially in stream
order from 0.0, so every aggregate and the partial Q (summed in id order)
keep the dict loops' bits.  Two references pin that: the dict-based sync
(``tests/core/agg_oracle.py``) and the numpy owner table
(``OwnerTable`` in ``tests/core/numpy_kernels.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["CommunitySnapshot"]


class CommunitySnapshot(NamedTuple):
    """One rank's community state after a sync, on the sync's compact
    label index.

    ``labels`` is ``np.unique(comm_of)`` and ``cidx`` the compact id of
    every local vertex (``labels[cidx] == comm_of``); ``sigma_tot`` and
    ``size`` are the owners' replies and ``local`` the number of owned
    vertices in each community, all indexed by compact id.  ``pair_ptr``,
    ``pair_id`` and ``pair_w`` are every row's neighbour-community sums
    from the sync's CSR scan (row ``u``'s pairs are ``pair_ptr[u] :
    pair_ptr[u + 1]``; see :meth:`repro.core.native.LevelKernels.scan`).
    The sync's ``place`` phase (:meth:`repro.core.native.LevelKernels.place`)
    builds its columns.  It describes ``comm_of``
    as the sync saw it, so every write to ``comm_of`` drops it.  None of
    its arrays is kernel scratch, so a snapshot held across later syncs
    stays as it was.
    """

    labels: np.ndarray
    cidx: np.ndarray
    sigma_tot: np.ndarray
    size: np.ndarray
    local: np.ndarray
    pair_ptr: np.ndarray
    pair_id: np.ndarray
    pair_w: np.ndarray

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pair_ptr, pair_id, pair_w)``, the gain pass's input."""
        return self.pair_ptr, self.pair_id, self.pair_w

    def lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sigma_tot, size, is_local)`` per compact id, the lookup
        columns of the sweep's gain pass."""
        return self.sigma_tot, self.size, self.local > 0
