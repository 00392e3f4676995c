"""Evasion & ambiguity robustness suite (adversarial corpus + diff).

``repro.adversarial`` generates seeded adversarial inputs — cross-packet
pattern splits under ambiguous TCP overlap, truncated/corrupt gzip
regions, pathological pattern-overlap geometry, reassembly-buffer
exhaustion — and replays them differentially through every kernel
family, asserting byte-identical matches, flow state and telemetry.
``repro-dpi fuzz-diff`` is the CLI entry.
"""

from repro.adversarial.corpus import (
    CASE_KINDS,
    CORPUS_VERSION,
    AdversarialCase,
    Corpus,
    CorpusEnvironment,
    default_environment,
    generate_corpus,
)
from repro.adversarial.differential import (
    DifferentialReport,
    Divergence,
    Leg,
    default_legs,
    legs_by_name,
    replay_case,
    run_differential,
)

__all__ = [
    "CASE_KINDS",
    "CORPUS_VERSION",
    "AdversarialCase",
    "Corpus",
    "CorpusEnvironment",
    "default_environment",
    "generate_corpus",
    "DifferentialReport",
    "Divergence",
    "Leg",
    "default_legs",
    "legs_by_name",
    "replay_case",
    "run_differential",
]
