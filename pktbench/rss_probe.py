"""Print the peak resident set (KiB) of one Development ``run_pipeline``.

Run in a fresh interpreter so that nothing else the benchmark holds counts:
    PYTHONPATH=src python3 pktbench/rss_probe.py NF IN.pcap OUT.pcap
"""

import resource
import sys

from pktcheck.engine import BuildMode
from pktcheck.pipeline import RunConfig, run_pipeline

nf_name, in_path, out_path = sys.argv[1:]
run_pipeline(
    RunConfig(
        nf_name=nf_name, input_path=in_path, output_path=out_path,
        mode=BuildMode.DEVELOPMENT, policy="continue",
    )
)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
