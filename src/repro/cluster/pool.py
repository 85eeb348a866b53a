"""Cross-machine remote-memory pool: realizing the MBE transfer.

Fig 19's metric assumes idle machines can *lend* DRAM to pressured ones
over the multi-path far-memory fabric.  This module is the mechanism: a
pool manager that, given a utilization snapshot and thresholds, computes
donor headroom and borrower demand, matches them into leases (greedy,
largest-demand first), and accounts for the fabric's capacity limits.

``realized_mbe`` then cross-checks the analytic metric in
:mod:`repro.cluster.mbe`: the memory actually moved by the lease match
must equal ``mbe(u, alpha, beta, fabric_limit=L)`` up to the matching
granularity (see :meth:`RemoteMemoryPool.realized_mbe` for the exact
bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CapacityError, ConfigurationError

__all__ = ["Lease", "RemoteMemoryPool"]


@dataclass(frozen=True)
class Lease:
    """One borrower<-donor memory grant (fractions of one machine's DRAM)."""

    borrower: int
    donor: int
    amount: float  # in machine-memory units (1.0 == one machine's DRAM)

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ConfigurationError("lease amount must be positive")
        if self.borrower == self.donor:
            raise ConfigurationError("a machine cannot lease to itself")


class RemoteMemoryPool:
    """Greedy donor/borrower matcher over one utilization snapshot.

    ``alpha``/``beta`` follow the MBE definition: machines below ``alpha``
    donate down to it... more precisely donate their headroom *up to*
    ``alpha`` (they may grow to ``alpha``); machines above ``beta`` shed
    their excess above ``beta``.  ``fabric_limit`` caps how much any one
    machine may lend or borrow (NIC bandwidth and address-space limits).
    """

    def __init__(self, alpha: float, beta: float, fabric_limit: float = 0.5) -> None:
        if not 0.0 <= alpha <= beta <= 1.0:
            raise ConfigurationError(f"need 0 <= alpha <= beta <= 1, got {alpha}, {beta}")
        if fabric_limit <= 0:
            raise ConfigurationError("fabric_limit must be positive")
        self.alpha = alpha
        self.beta = beta
        self.fabric_limit = fabric_limit
        self.leases: list[Lease] = []

    def match(self, utilization: np.ndarray) -> list[Lease]:
        """Compute leases for one snapshot; returns (and stores) them."""
        u = np.asarray(utilization, dtype=np.float64).ravel()
        if u.size == 0:
            raise ConfigurationError("empty utilization snapshot")
        if (u < 0).any() or (u > 1).any():
            raise ConfigurationError("utilizations must lie in [0, 1]")
        donors = [
            (i, min(self.alpha - u[i], self.fabric_limit))
            for i in np.flatnonzero(u < self.alpha)
        ]
        borrowers = [
            (i, min(u[i] - self.beta, self.fabric_limit))
            for i in np.flatnonzero(u > self.beta)
        ]
        # largest demand first; largest headroom first
        donors.sort(key=lambda kv: kv[1], reverse=True)
        borrowers.sort(key=lambda kv: kv[1], reverse=True)
        leases: list[Lease] = []
        di = 0
        for b, need in borrowers:
            while need > 1e-12 and di < len(donors):
                d, head = donors[di]
                take = min(need, head)
                if take > 1e-12:
                    leases.append(Lease(borrower=int(b), donor=int(d), amount=float(take)))
                    need -= take
                    head -= take
                donors[di] = (d, head)
                if head <= 1e-12:
                    di += 1
                else:
                    break
        self.leases = leases
        return leases

    # -- accounting ----------------------------------------------------------
    @property
    def total_leased(self) -> float:
        """Memory moved, in machine-memory units."""
        return sum(l.amount for l in self.leases)

    def realized_mbe(self, n_machines: int) -> float:
        """Fraction of cluster memory rebalanced by the current leases.

        Comparable to :func:`repro.cluster.mbe.mbe`: pressure shed plus
        headroom filled, i.e. twice the leased volume, per machine.

        Exact tolerance vs the analytic metric: donors can serve any
        borrower (no pairwise constraints), so the greedy match attains
        ``min(total capped supply, total capped demand)`` — the value of
        ``mbe(u, alpha, beta, fabric_limit=self.fabric_limit)`` — except
        for the matcher's 1e-12 epsilon skips, which strand at most 1e-12
        machine-units per donor and leave at most 1e-12 unfilled per
        borrower.  Hence

        ``|realized_mbe(M) - mbe(u, a, b, fabric_limit=L)|
        <= 2 * (n_donors + n_borrowers) * 1e-12 / M  (<= 2e-12)``

        plus float summation round-off; the tests assert ``abs=1e-9``.
        """
        if n_machines < 1:
            raise ConfigurationError("n_machines must be >= 1")
        return 2.0 * self.total_leased / n_machines

    def apply(self, utilization: np.ndarray) -> np.ndarray:
        """Post-balance utilizations (donors rise, borrowers fall)."""
        u = np.asarray(utilization, dtype=np.float64).copy().ravel()
        for lease in self.leases:
            u[lease.donor] += lease.amount
            u[lease.borrower] -= lease.amount
        if (u < -1e-9).any() or (u > 1 + 1e-9).any():
            raise CapacityError("lease set drives a machine out of [0, 1]")
        return np.clip(u, 0.0, 1.0)
