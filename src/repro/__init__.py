"""Reproduction of "Deep Packet Inspection as a Service" (CoNEXT 2014).

Subpackages:

* :mod:`repro.core` — the paper's contribution: the combined virtual-DPI
  automaton, the per-packet scanner, the DPI controller and service
  instances and match reports.
* :mod:`repro.autoscale` — the one control loop: scaling, heavy-hitter
  isolation and MCA^2-style stress migration.
* :mod:`repro.net` — the SDN substrate: a deterministic discrete-event
  simulator with OpenFlow-style switches, an SDN controller and a
  SIMPLE-style traffic steering application.
* :mod:`repro.middleboxes` — middleboxes that consume the DPI service
  (IDS, IPS, AV, L7 firewall, DLP, traffic shaper, load balancer,
  analytics) and the legacy embedded-DPI baseline.
* :mod:`repro.workloads` — synthetic Snort-/ClamAV-like pattern sets and
  HTTP/campus-like traffic generators.
* :mod:`repro.bench` — measurement harnesses used by the ``benchmarks/``
  suite to regenerate the paper's tables and figures.
"""

from repro.core import (
    AhoCorasick,
    CombinedAutomaton,
    DPIController,
    DPIServiceInstance,
    MatchReport,
    MiddleboxProfile,
    Pattern,
    PatternKind,
    PatternSet,
    RegexPreFilter,
    VirtualScanner,
)

__version__ = "1.0.0"

__all__ = [
    "AhoCorasick",
    "CombinedAutomaton",
    "DPIController",
    "DPIServiceInstance",
    "MatchReport",
    "MiddleboxProfile",
    "Pattern",
    "PatternKind",
    "PatternSet",
    "RegexPreFilter",
    "VirtualScanner",
    "__version__",
]
