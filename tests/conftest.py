import pytest

from pktcheck import Packet, standard_registry

from oracles import build_tcp6_bytes


@pytest.fixture(scope="session")
def registry():
    return standard_registry()


@pytest.fixture
def tcp6_packet() -> Packet:
    return Packet.from_bytes(build_tcp6_bytes())
