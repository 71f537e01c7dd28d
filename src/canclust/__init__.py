"""Forensic detection of CAN masquerade attacks via signal clustering similarity.

The toolkit ingests signal-translated CAN captures, resamples them onto a
common grid, clusters the signals hierarchically from their pairwise Pearson
correlations, scores dendrogram similarity between captures with an
element-centric diffusion measure, and decides benign vs. attack with a
Mann-Whitney U test on the similarity distributions.
"""

from importlib import import_module

# public name -> the module that defines it; each is imported on first access (PEP 562), so that
# `import canclust.cli` loads only the modules the command it runs needs
_HOMES = {
    "ingest": ("RawSignal", "SignalCapture", "SignalMatrix", "parse_capture", "resample"),
    "correlation": ("DissimilarityMatrix", "to_dissimilarity"),
    "hierarchy": ("LINKAGES", "Dendrogram", "agglomerate"),
    "clusim": ("HierarchyParams", "SimilarityScore", "affinity", "similarity"),
    "stats": ("TestResult", "density_export", "mann_whitney"),
    "synth": ("AttackSpec", "SynthSpec", "generate", "inject", "signal_id"),
    "pipeline": ("RunConfig",),
    "report": ("VerdictReport", "run", "verdict", "write_outputs"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without calling this
    return value


__version__ = "0.1.0"
