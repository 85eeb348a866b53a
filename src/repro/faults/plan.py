"""Fault plans: deterministic, seeded schedules of device misbehaviour.

A :class:`FaultPlan` is a list of timed windows, each describing one way a
far-memory device degrades (the failure modes named open challenges in the
disaggregation literature):

* :class:`LatencyFault` — per-op/setup costs inflate by a factor
  (firmware retries, congested fabric, background GC);
* :class:`BandwidthFault` — delivered media bandwidth drops to a fraction
  of the profile (thermal throttling, degraded link training);
* :class:`TransientFault` — individual operations fail with a given
  probability and may succeed when retried (media errors, dropped verbs);
* :class:`OfflineFault` — the device is fully unreachable for the window
  (pulled cable, firmware hang, maintenance).

Windows are *simulated-time* intervals ``[start, start + duration)``.  All
stochastic choices — which ops a transient window kills — derive from the
plan's seed via :func:`repro.rng.derive`, so a plan replays bit-identically
under the same seed (the simlint rule FLT001 polices this: no other
randomness may enter fault-plan code).  Plans round-trip through JSON for
the ``repro replay <wl> --inject plan.json`` CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

from repro.errors import ConfigurationError
from repro.rng import derive

__all__ = [
    "FaultWindow",
    "LatencyFault",
    "BandwidthFault",
    "TransientFault",
    "OfflineFault",
    "FaultPlan",
    "merge_spans",
]


def merge_spans(spans) -> list[tuple[float, float]]:
    """Merge ``[start, end)`` intervals into sorted disjoint spans.

    Abutting spans coalesce (a window ending exactly when the next starts
    is one contiguous hazard): the half-open convention means no instant
    between them is healthy.
    """
    merged: list[list[float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _check_finite(name: str, value) -> None:
    """Reject non-numbers, bools, NaN and infinities.

    NaN would otherwise slip through every ``<``/``<=`` range check below.
    """
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` parses as one)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultWindow:
    """Base class: one timed fault window ``[start, start + duration)``."""

    #: Simulated time the window opens, seconds.
    start: float
    #: Window length, seconds.
    duration: float

    #: JSON tag; subclasses override.
    KIND = ""

    def __post_init__(self) -> None:
        _check_finite("window start", self.start)
        _check_finite("window duration", self.duration)
        if self.start < 0:
            raise ConfigurationError(f"window start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ConfigurationError(f"window duration must be > 0, got {self.duration}")

    @property
    def end(self) -> float:
        """First instant after the window."""
        return self.start + self.duration

    def active(self, t: float) -> bool:
        """Whether ``t`` falls inside the window."""
        return self.start <= t < self.end

    def to_dict(self) -> dict:
        """JSON-serializable representation (``kind`` tag included)."""
        d = {"kind": self.KIND, "start": self.start, "duration": self.duration}
        d.update(self._extra())
        return d

    def _extra(self) -> dict:
        return {}


@dataclass(frozen=True)
class LatencyFault(FaultWindow):
    """Per-operation device costs inflate by ``factor`` while active."""

    factor: float = 10.0
    KIND = "latency"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_finite("latency factor", self.factor)
        if self.factor < 1.0:
            raise ConfigurationError(
                f"latency factor must be >= 1 (a fault cannot speed a device up), "
                f"got {self.factor}"
            )

    def _extra(self) -> dict:
        return {"factor": self.factor}


@dataclass(frozen=True)
class BandwidthFault(FaultWindow):
    """Delivered media bandwidth drops to ``fraction`` of the profile."""

    fraction: float = 0.25
    KIND = "bandwidth"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_finite("bandwidth fraction", self.fraction)
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"bandwidth fraction must be in (0, 1], got {self.fraction}"
            )

    def _extra(self) -> dict:
        return {"fraction": self.fraction}


@dataclass(frozen=True)
class TransientFault(FaultWindow):
    """Each op fails independently with ``error_rate`` while active.

    Failures are drawn from the plan's seeded stream, never fresh
    entropy; how often a failed op is retried is the executor's
    :class:`~repro.swap.executor.RetryPolicy`, not the plan's.
    """

    error_rate: float = 0.5
    KIND = "transient"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_finite("error_rate", self.error_rate)
        if not 0.0 < self.error_rate <= 1.0:
            raise ConfigurationError(
                f"error_rate must be in (0, 1], got {self.error_rate}"
            )

    def _extra(self) -> dict:
        return {"error_rate": self.error_rate}


@dataclass(frozen=True)
class OfflineFault(FaultWindow):
    """The device rejects every op for the whole window."""

    KIND = "offline"


_WINDOW_KINDS: dict[str, type[FaultWindow]] = {
    cls.KIND: cls
    for cls in (LatencyFault, BandwidthFault, TransientFault, OfflineFault)
}


class FaultPlan:
    """A seeded schedule of fault windows for one device.

    The plan is immutable after construction.  ``seed`` keys the stream
    transient-error draws come from (``None`` selects the library default
    seed) — two runs of the same plan and seed inject identical faults at
    identical ops.
    """

    def __init__(
        self,
        windows: tuple[FaultWindow, ...] | list[FaultWindow] = (),
        seed: int | None = None,
        name: str = "plan",
    ) -> None:
        for w in windows:
            if not isinstance(w, FaultWindow):
                raise ConfigurationError(f"not a FaultWindow: {w!r}")
        self.windows: tuple[FaultWindow, ...] = tuple(
            sorted(windows, key=lambda w: (w.start, w.end, w.KIND))
        )
        self.seed = seed
        self.name = name
        # one seeded stream per plan instance for transient-error draws;
        # consumed in deterministic DES op order
        self._transient_rng = derive(seed, f"faults/{name}/transient")

    def __bool__(self) -> bool:
        return bool(self.windows)

    def __len__(self) -> int:
        return len(self.windows)

    # -- window queries ----------------------------------------------------
    def _active(self, t: float, kind: type[FaultWindow]):
        for w in self.windows:
            if isinstance(w, kind) and w.active(t):
                return w
        return None

    def latency_factor(self, t: float) -> float:
        """Op-cost inflation at time ``t`` (1.0 when healthy)."""
        w = self._active(t, LatencyFault)
        return w.factor if w is not None else 1.0

    def bandwidth_fraction(self, t: float) -> float:
        """Delivered-bandwidth fraction at time ``t`` (1.0 when healthy)."""
        w = self._active(t, BandwidthFault)
        return w.fraction if w is not None else 1.0

    def offline(self, t: float) -> OfflineFault | None:
        """The active offline window at ``t``, if any."""
        return self._active(t, OfflineFault)

    def transient(self, t: float) -> TransientFault | None:
        """The active transient-error window at ``t``, if any."""
        return self._active(t, TransientFault)

    def draw_transient(self, t: float) -> bool:
        """Whether an op admitted at ``t`` fails with a transient error.

        Consumes one draw from the plan's seeded stream *only* inside an
        active transient window, so op outcomes outside windows never
        perturb the stream.
        """
        w = self.transient(t)
        if w is None:
            return False
        return bool(self._transient_rng.random() < w.error_rate)

    def next_recovery(self, t: float) -> float | None:
        """Earliest end of any window active at ``t`` (None when healthy).

        The graceful-degradation stall in the executor waits until this
        time before re-probing an offline device.
        """
        ends = [w.end for w in self.windows if w.active(t)]
        return min(ends) if ends else None

    def live_spans(self, t: float) -> list[tuple[float, float]]:
        """Merged hazard spans of windows still live at ``t`` (``end > t``).

        Dead windows (fully in the past) drop out, which is what lets the
        hybrid planner — and the batch-eligibility check — ignore plans
        whose every window the run has already outlived.
        """
        return merge_spans((w.start, w.end) for w in self.windows if w.end > t)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "name": self.name,
            "seed": self.seed,
            "windows": [w.to_dict() for w in self.windows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; validates every window."""
        if not isinstance(data, dict) or not isinstance(data.get("windows"), list):
            raise ConfigurationError("fault plan JSON needs a 'windows' list")
        windows = []
        for entry in data["windows"]:
            if not isinstance(entry, dict):
                raise ConfigurationError(f"fault window must be a JSON object, got {entry!r}")
            kind = entry.get("kind")
            wcls = _WINDOW_KINDS.get(kind)
            if wcls is None:
                raise ConfigurationError(
                    f"unknown fault window kind {kind!r}; "
                    f"expected one of {sorted(_WINDOW_KINDS)}"
                )
            kwargs = {k: v for k, v in entry.items() if k != "kind"}
            try:
                windows.append(wcls(**kwargs))
            except TypeError as exc:
                raise ConfigurationError(f"bad {kind} window: {exc}") from None
        seed = data.get("seed")
        if seed is not None and not _is_int(seed):
            raise ConfigurationError(f"plan seed must be an int, got {seed!r}")
        return cls(windows, seed=seed, name=str(data.get("name", "plan")))

    def to_json(self) -> str:
        """Compact JSON text of the plan."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = [w.KIND for w in self.windows]
        return f"<FaultPlan {self.name} seed={self.seed} windows={kinds}>"
