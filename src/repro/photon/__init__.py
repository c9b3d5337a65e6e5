"""Photon: remote memory access middleware (the paper's contribution).

Public surface:

- :func:`photon_init` / :class:`Photon` — endpoint lifecycle
- buffers: ``Photon.buffer`` / ``register_buffer`` (+ registration cache)
- PWC: ``put_pwc`` / ``get_pwc`` / ``send_pwc`` / ``probe_completion`` /
  ``wait_completion`` / ``probe_message`` / ``wait_message``
- request-based RMA: ``post_os_put`` / ``post_os_get`` / ``wait`` / ``test``
- rendezvous messaging: ``send_rdma`` / ``wait_recv_info`` / ``recv_rdma`` /
  ``send_msg`` / ``recv_msg``
- collectives: ``barrier`` / ``allreduce`` / ``allgather`` (the schedules
  minimpi runs too: :mod:`repro.photon.collectives`)
- backends: :mod:`repro.photon.backends`
"""

from .api import Photon, PhotonBuffer, photon_init
from .base import Completion, ReliableOp
from .config import DEFAULT_CONFIG, PhotonConfig
from .messaging import ANY, RecvInfo
from .rcache import RegistrationCache
from .request import PhotonRequest, RequestState, RequestTable

__all__ = [
    "Photon", "PhotonBuffer", "photon_init",
    "Completion", "ReliableOp",
    "DEFAULT_CONFIG", "PhotonConfig",
    "ANY", "RecvInfo",
    "RegistrationCache",
    "PhotonRequest", "RequestState", "RequestTable",
]
