"""ICS/OT asset discovery toolkit.

Active three-phase scanning, passive capture analysis, a
protocol-faithful device simulator for safe testing, a six-level
scanning-depth model, a feature taxonomy of asset-discovery tools, and
an offline CVE matcher, tied together by the ``icsrecon`` CLI.
"""

from .model import (
    Asset,
    DeploymentInfo,
    DepthLevel,
    Inventory,
    PortSpec,
    StaticDeviceInfo,
    compute_depth,
    merge_observation,
)

__version__ = "0.1.0"

__all__ = [
    "Asset",
    "DeploymentInfo",
    "DepthLevel",
    "Inventory",
    "PortSpec",
    "StaticDeviceInfo",
    "compute_depth",
    "merge_observation",
    "__version__",
]
