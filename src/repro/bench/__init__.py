"""Support for regenerating the paper's tables and figures.

Nothing here makes a timing claim — that is ``perf/run.py``'s job alone.

* :mod:`repro.bench.throughput` — timing of scan loops, Mbps accounting
  (what the ``benchmarks/`` paper figures compare ratios of);
* :mod:`repro.bench.virtualization` — the calibrated VM-overhead model used
  by Figure 8 (our substrate has no hypervisor to measure);
* :mod:`repro.bench.regions` — the achievable-throughput regions of
  Figure 10 (separate-middlebox rectangle vs virtual-DPI triangle);
* :mod:`repro.bench.harness` — text rendering of tables and series in the
  shape the paper reports, and the result-file writer;
* :mod:`repro.bench.e2e`, :mod:`repro.bench.anomaly` — the two sim-clock
  reports (``BENCH_e2e.json``, ``BENCH_anomaly.json``), pure functions of
  their ``config``.
"""

from repro.bench.throughput import ThroughputResult, measure_scan_throughput
from repro.bench.virtualization import CacheModel, VirtualizationModel
from repro.bench.regions import CombinedTriangle, SeparateRectangle, region_report
from repro.bench.harness import Series, Table, percent_faster

__all__ = [
    "ThroughputResult",
    "measure_scan_throughput",
    "CacheModel",
    "VirtualizationModel",
    "SeparateRectangle",
    "CombinedTriangle",
    "region_report",
    "Series",
    "Table",
    "percent_faster",
]
