"""MPI-like status, wildcards and configuration."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ANY_SOURCE", "ANY_TAG", "Status", "MPIConfig", "DEFAULT_MPI_CONFIG"]

#: wildcard source / tag
ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Status:
    """Completion status of a receive (or probe)."""

    source: int = -1
    tag: int = -1
    count: int = 0


@dataclass(frozen=True)
class MPIConfig:
    """Tunables of the minimpi library (mirrors typical MPI CVARs)."""

    #: messages <= this go eager (copied through bounce buffers)
    eager_threshold: int = 8192

    def validate(self) -> None:
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be >= 0")


DEFAULT_MPI_CONFIG = MPIConfig()
