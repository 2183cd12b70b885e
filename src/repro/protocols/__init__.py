"""Invalidation-schedule simulators: MIN, OTF, RD, SD, SRD, WBWI, MAX,

plus the finite-cache extension.  See paper section 4.0."""

from .base import PROTOCOL_REGISTRY, Protocol, register
from .finite import (
    FiniteOTFProtocol,
    cache_geometry,
    finite_spec,
    parse_finite_spec,
)
from .lifetime import LifetimeTracker
from .maxsched import MAXSchedule
from .min_wt import MINProtocol
from .otf import OTFProtocol
from .rd import RDProtocol
from .results import Counters, ProtocolResult, merge_shard_results
from .runner import (
    ALL_PROTOCOLS,
    make_protocol,
    protocol_names,
    run_protocol,
    run_protocol_grid,
    run_protocols,
)
from .sd import SDProtocol
from .sector import SectorProtocol, sector_sweep_sizes
from .traffic import Traffic, TrafficModel, estimate_traffic, traffic_per_reference
from .update import CUProtocol, WUProtocol
from .srd import SRDProtocol
from .wbwi import WBWIProtocol

__all__ = [
    "ALL_PROTOCOLS",
    "Counters",
    "FiniteOTFProtocol",
    "LifetimeTracker",
    "MAXSchedule",
    "MINProtocol",
    "OTFProtocol",
    "PROTOCOL_REGISTRY",
    "Protocol",
    "ProtocolResult",
    "RDProtocol",
    "SDProtocol",
    "SectorProtocol",
    "SRDProtocol",
    "CUProtocol",
    "Traffic",
    "TrafficModel",
    "WBWIProtocol",
    "WUProtocol",
    "cache_geometry",
    "estimate_traffic",
    "finite_spec",
    "parse_finite_spec",
    "traffic_per_reference",
    "make_protocol",
    "merge_shard_results",
    "protocol_names",
    "register",
    "run_protocol",
    "run_protocol_grid",
    "run_protocols",
    "sector_sweep_sizes",
]
