"""The paper's contribution: DPI as a service.

Public API:

* :class:`~repro.core.patterns.Pattern`, :class:`~repro.core.patterns.PatternSet`
  — pattern model shared by middleboxes, controller and instances.
* :class:`~repro.core.aho_corasick.AhoCorasick` — the classic multi-string
  matcher (Section 3).
* :class:`~repro.core.combined.CombinedAutomaton` — the virtual-DPI automaton
  that merges the pattern sets of many middleboxes (Section 5.1).
* :class:`~repro.core.scanner.VirtualScanner` — per-packet inspection with
  policy chains, stateful flows and stopping conditions (Section 5.2).
* :class:`~repro.core.regex.RegexPreFilter` — anchor-based regular-expression
  pre-filtering (Section 5.3).
* :class:`~repro.core.reports.MatchReport` — the wire encoding of scan
  results (Section 6.5).
* :class:`~repro.core.instance.DPIServiceInstance` and
  :class:`~repro.core.controller.DPIController` — the service data plane and
  its logically centralized control (Section 4).

MCA^2-style robustness (Section 4.3.1) is a policy of the one control loop,
:class:`repro.autoscale.StressPolicy`.
"""

from repro.core.patterns import Pattern, PatternKind, PatternSet
from repro.core.aho_corasick import AhoCorasick
from repro.core.wu_manber import WuManber
from repro.core.nfa import RegexNFA, RegexSyntaxError
from repro.core.regex_dfa import RegexDFA, StateExplosionError
from repro.core.preprocess import PayloadPreprocessor, ScanView
from repro.core.combined import CombinedAutomaton
from repro.core.flow_table import FlowScanState, FlowTable
from repro.core.scanner import MiddleboxProfile, ScanResult, VirtualScanner
from repro.core.anchors import extract_anchors
from repro.core.regex import RegexPreFilter
from repro.core.reports import MatchReport
from repro.core.messages import (
    AddPatternsMessage,
    RegisterMiddleboxMessage,
    RemovePatternsMessage,
    UnregisterMiddleboxMessage,
)
from repro.core.controller import DPIController
from repro.core.instance import DPIServiceInstance
from repro.core.stream import StreamInspector

__all__ = [
    "Pattern",
    "PatternKind",
    "PatternSet",
    "AhoCorasick",
    "WuManber",
    "RegexNFA",
    "RegexSyntaxError",
    "RegexDFA",
    "StateExplosionError",
    "PayloadPreprocessor",
    "ScanView",
    "CombinedAutomaton",
    "FlowScanState",
    "FlowTable",
    "MiddleboxProfile",
    "ScanResult",
    "VirtualScanner",
    "extract_anchors",
    "RegexPreFilter",
    "MatchReport",
    "RegisterMiddleboxMessage",
    "UnregisterMiddleboxMessage",
    "AddPatternsMessage",
    "RemovePatternsMessage",
    "DPIController",
    "DPIServiceInstance",
    "StreamInspector",
]
