"""Forensic detection of CAN masquerade attacks via signal clustering similarity.

The toolkit ingests signal-translated CAN captures, resamples them onto a
common grid, clusters the signals hierarchically from their pairwise Pearson
correlations, scores dendrogram similarity between captures with an
element-centric diffusion measure, and decides benign vs. attack with a
Mann-Whitney U test on the similarity distributions.
"""

from .ingest import RawSignal, SignalCapture, SignalMatrix, parse_capture, resample
from .correlation import DissimilarityMatrix, to_dissimilarity
from .hierarchy import LINKAGES, Dendrogram, agglomerate
from .clusim import HierarchyParams, SimilarityScore, affinity, similarity
from .stats import TestResult, density_export, mann_whitney
from .synth import AttackSpec, SynthSpec, generate, inject, signal_id
from .pipeline import RunConfig, SimilaritySample, VerdictReport, run, verdict, write_outputs

__all__ = [
    "RawSignal", "SignalCapture", "SignalMatrix", "parse_capture", "resample",
    "DissimilarityMatrix", "to_dissimilarity",
    "LINKAGES", "Dendrogram", "agglomerate",
    "HierarchyParams", "SimilarityScore", "affinity", "similarity",
    "TestResult", "density_export", "mann_whitney",
    "AttackSpec", "SynthSpec", "generate", "inject", "signal_id",
    "RunConfig", "SimilaritySample", "VerdictReport", "run", "verdict", "write_outputs",
]

__version__ = "0.1.0"
