"""The paper's contribution: density modularity + DMCS algorithms."""
from .fpa import fpa
from .modularity import (
    classic_modularity,
    cm_of,
    density_modularity,
    density_ratio,
    dm_gain,
    dm_of,
    generalized_modularity_density,
)
from .nca import nca
from .steiner import steiner_connector

__all__ = [
    "fpa",
    "nca",
    "steiner_connector",
    "classic_modularity",
    "density_modularity",
    "generalized_modularity_density",
    "density_ratio",
    "dm_gain",
    "dm_of",
    "cm_of",
]
