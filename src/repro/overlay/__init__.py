"""The two-host container-overlay testbed (paper §V-A).

- :mod:`~repro.overlay.network` — the point-to-point wire and the
  coarse-grained remote (client) machine;
- :mod:`~repro.overlay.host` — a fully simulated server host: kernel,
  CPUs, physical NIC, root namespace, egress path;
- :mod:`~repro.overlay.container` — containers: namespace + veth pair +
  socket/thread helpers;
- :mod:`~repro.overlay.topology` — the VXLAN overlay fabric: bridge,
  vxlan device, container registration, encapsulation info (the Docker
  overlay control plane's job);
- :mod:`~repro.overlay.wirefmt` — the compact cross-shard wire format
  used by the space-parallel cluster executor.
"""

from repro.overlay.container import Container
from repro.overlay.host import Host
from repro.overlay.network import RemoteContainer, RemoteHost, Wire
from repro.overlay.topology import (
    HostOverlay,
    OverlayEndpoint,
    OverlayNetwork,
    register_remote_container,
)
from repro.overlay.wirefmt import (
    EMPTY_FRAME,
    WireBatch,
    WirePacket,
    decode_batch,
    wire_sort_key,
)

__all__ = [
    "Container",
    "EMPTY_FRAME",
    "Host",
    "HostOverlay",
    "OverlayEndpoint",
    "OverlayNetwork",
    "RemoteContainer",
    "RemoteHost",
    "Wire",
    "WireBatch",
    "WirePacket",
    "decode_batch",
    "register_remote_container",
    "wire_sort_key",
]
