"""Contract-checked packet processing.

Network functions declare what they expect of incoming packets and what
they guarantee about outgoing ones — a header order plus field checks —
and the framework turns those declarations into verified-at-setup header
orderings, static assertions over constants, and per-packet runtime
checks against an immutable ingress snapshot. Development builds evaluate
everything; Production builds keep the setup-time verification and elide
all per-packet checking.
"""

from .checksum import internet_checksum, pseudo_header_checksum
from .contracts import (
    Contract,
    ContractSpec,
    PhaseSpec,
    StaticAssertion,
    elaborate,
    explain_contract,
    parse_contract_spec,
)
from .engine import (
    BuildMode,
    Check,
    ContractRuntime,
    FieldRef,
    Operand,
    Source,
    Violation,
    run_egress,
    run_ingress,
)
from .exceptions import (
    ChainOrderError,
    ConfigError,
    ContractSyntaxError,
    ElaborationError,
    EmitError,
    ParseError,
    PcapError,
    PktCheckError,
    RegistryError,
)
from .generator import GeneratorSpec, generate_records
from .headers import (
    ETH_HDR_SIZE,
    IPV6_HDR_SIZE,
    IPV6_MIN_MTU,
    EthHdr,
    Icmpv6PktTooBig,
    Ipv6Hdr,
    Packet,
    Srv6RoutingHdr,
    TcpHdr,
)
from .nfs import (
    NetworkFunction,
    TransformResult,
    make_nf,
)
from .pcap import PcapRecord, pcap_bytes, read_pcap, write_pcap
from .pipeline import RunConfig, RunSummary, bench, run_pipeline, run_records
from .registry import (
    OrderElement,
    OrderSpec,
    Registry,
    order,
    standard_registry,
    verify_order,
)

__version__ = "0.1.0"

__all__ = [
    "BuildMode",
    "ChainOrderError",
    "Check",
    "ConfigError",
    "Contract",
    "ContractRuntime",
    "ContractSpec",
    "ContractSyntaxError",
    "ETH_HDR_SIZE",
    "ElaborationError",
    "EmitError",
    "EthHdr",
    "FieldRef",
    "GeneratorSpec",
    "IPV6_HDR_SIZE",
    "IPV6_MIN_MTU",
    "Icmpv6PktTooBig",
    "Ipv6Hdr",
    "NetworkFunction",
    "Operand",
    "OrderElement",
    "OrderSpec",
    "Packet",
    "ParseError",
    "PcapError",
    "PcapRecord",
    "PhaseSpec",
    "PktCheckError",
    "Registry",
    "RegistryError",
    "RunConfig",
    "RunSummary",
    "Source",
    "Srv6RoutingHdr",
    "StaticAssertion",
    "TcpHdr",
    "TransformResult",
    "Violation",
    "bench",
    "elaborate",
    "explain_contract",
    "generate_records",
    "internet_checksum",
    "make_nf",
    "order",
    "parse_contract_spec",
    "pcap_bytes",
    "pseudo_header_checksum",
    "read_pcap",
    "run_egress",
    "run_ingress",
    "run_pipeline",
    "run_records",
    "standard_registry",
    "verify_order",
    "write_pcap",
]
