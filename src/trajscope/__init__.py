"""trajscope: batch toolkit for drone-trajectory annotation datasets.

Parses SDD and inD annotations into unified pixel-space trajectories,
applies the lost-filter / resample / window preprocessing pipeline,
measures pairwise interaction strength per frame (dependence estimate
weighted by windowed kinematics, folded through an exponential-memory
recurrence), reproduces dataset characterization statistics, and scores
trajectory predictions with displacement errors.
"""
from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines them. They are imported on
# first use, so a command pays only for the modules it runs.
_EXPORTS = {
    "aim": (
        "InteractionPair", "Kinematics", "MeasureSeries", "Selection", "accumulate_aim", "compute_kinematics",
        "compute_rho", "extract_interactions", "fit_normalizers", "measure_interaction", "select", "sweep",
    ),
    "analytics": (
        "ClassDistributionRow", "LostStatsRow", "OverlapRow", "SplitCandidate",
        "class_distribution", "detect_split_candidates", "group_trajectories_for_stats",
        "lost_stats", "overlap_report", "reports",
    ),
    "evaluation": (
        "EvalReport", "Prediction", "ade", "constant_velocity_predict", "evaluate", "fde",
        "load_predictions", "predictor_from_mapping", "scores",
    ),
    "ind": ("meters_to_pixels", "parse_ind_tracks", "pixels_to_meters"),
    "mi": ("HashMIState", "g_divergence", "mi_prefix_series"),
    "preprocess": (
        "LostPolicy", "LostPositions", "PreprocessConfig", "TrajectoryWindow",
        "classify_lost_positions", "drop_generated", "filter_lost", "preprocess_trajectory",
        "resample", "window",
    ),
    "registry": ("DatasetRegistry", "SceneOverlap", "default_registry_path", "load_registry"),
    "sdd": (
        "RECORD_DTYPE", "IngestDiagnostics", "assemble_trajectories", "parse_sdd_annotations",
    ),
    "store": ("load_manifest", "load_store", "videos", "write_store"),
    "types": (
        "ALL_CLASSES", "DEFAULT_BANDWIDTHS", "DEFAULT_DELTA", "DEFAULT_N_MIN", "POINT_DTYPE",
        "ConfigError", "DomainError", "IND_CLASSES", "InsufficientDataError", "MIConfig", "ParseError",
        "RhoConfig", "SDD_CLASSES", "SourceRef", "StructuralError", "ToolError", "Trajectory",
        "canonical_class", "scene_diagonal",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Looked up in its module on every access, not cached here, so a name
    # rebound in its module (by a test's monkeypatch, say) is rebound here too.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
