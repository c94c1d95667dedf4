"""Lets ``python3 -m pytest pktbench`` import pktcheck from ``src/`` and the
benchmark's modules from this directory."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]
