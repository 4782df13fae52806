"""Analytic collective cost models and gradient-sync accounting.

Ring alpha-beta algebra only: time = bandwidth term + per-hop latency term.
The useful identity allreduce = allgather + reducescatter holds exactly and
is pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ModelSpec
from .cluster import stage_local_params
from .workload import TrainingStage

COLLECTIVE_KINDS = ("allreduce", "allgather", "reducescatter", "p2p")


@dataclass(frozen=True)
class CollectiveCostModel:
    latency_per_hop: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_per_hop < 0:
            raise ValueError("latency must be >= 0")


def collective_time(
    kind: str,
    payload_bytes: float | np.ndarray,
    participants: int | np.ndarray,
    model: CollectiveCostModel,
) -> float | np.ndarray:
    """Ring collective completion time in seconds; 0 for a lone participant.

    `payload_bytes` and `participants` may be numpy arrays that broadcast
    together: the times are then a float64 array, each element the float
    the scalar call gives (the same IEEE operations in the same order),
    and every element must pass the checks. Scalars give a Python float.
    """
    if kind not in COLLECTIVE_KINDS:
        raise ValueError(f"unknown collective kind {kind!r}")
    if (np.asarray(participants) < 1).any():
        raise ValueError("participants must be >= 1")
    if (np.asarray(payload_bytes) < 0).any():
        raise ValueError("payload must be >= 0")
    n = participants
    bw = model.bandwidth
    lat = model.latency_per_hop
    if kind == "allreduce":
        time = 2.0 * (n - 1) / n * payload_bytes / bw + 2.0 * (n - 1) * lat
    elif kind in ("allgather", "reducescatter"):
        time = (n - 1) / n * payload_bytes / bw + (n - 1) * lat
    else:  # p2p
        time = payload_bytes / bw + lat
    time = np.where(n == 1, 0.0, time)
    return time if time.ndim else float(time)


@dataclass(frozen=True)
class GradSyncPolicy:
    precision_bytes: int = 2
    frequency: str = "per_step"  # or "per_microbatch"
    bucket_bytes: float = 64 * 2**20
    overlap: bool = True

    def __post_init__(self) -> None:
        if self.precision_bytes not in (2, 4):
            raise ValueError("precision_bytes must be 2 or 4")
        if self.frequency not in ("per_step", "per_microbatch"):
            raise ValueError(f"unknown sync frequency {self.frequency!r}")
        if self.bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be positive")


def stage_grad_bytes(
    model: ModelSpec,
    stage: TrainingStage,
    partition: list[int],
    i: int,
    tp: int,
    precision_bytes: int,
) -> float:
    """Gradient bytes one chip of pipeline stage i syncs each time it syncs.

    The stage's trainable params (frozen components sync nothing), sharded
    1/tp, at the sync precision. A step syncs once, or once per microbatch
    under per-microbatch sync.
    """
    local = stage_local_params(model, partition, i)
    trainable = sum(local[c] for c in local if c in stage.trainable)
    return trainable / tp * precision_bytes


def split_buckets(volume: float, bucket_bytes: float) -> list[float]:
    """Split a sync volume into full buckets plus a remainder bucket."""
    if volume <= 0:
        return []
    full = int(volume // bucket_bytes)
    buckets = [float(bucket_bytes)] * full
    remainder = volume - full * bucket_bytes
    if remainder > 0:
        buckets.append(remainder)
    return buckets
