"""Dyadic-grid workbench for bilinear fractional integrals on Morrey spaces."""

from .grid import (AlignedBox, DyadicCube, GridFunction, cube_box,
                   enumerate_subcubes, read_mgf, unit_root, write_mgf)
from .norms import (CubeFamily, NormReport, aligned_family, dyadic_family,
                    lebesgue_norm, morrey_norm, pair_morrey_sup,
                    weak_quasinorm)
from .operators import (OperatorField, b_alpha, b_alpha_dyadic,
                        b_truncated, i_alpha, m_alpha_bilinear,
                        m_alpha_vector, m_tilde, m_triple_dyadic)
from .util import NumericalError, ParameterError

__all__ = [
    "AlignedBox", "CubeFamily", "DyadicCube", "GridFunction",
    "NormReport", "NumericalError", "OperatorField", "ParameterError",
    "aligned_family", "b_alpha", "b_alpha_dyadic", "b_truncated", "cube_box",
    "dyadic_family", "enumerate_subcubes", "i_alpha", "lebesgue_norm",
    "m_alpha_bilinear", "m_alpha_vector", "m_tilde", "m_triple_dyadic",
    "morrey_norm", "pair_morrey_sup", "read_mgf", "unit_root",
    "weak_quasinorm", "write_mgf",
]

__version__ = "0.1.0"
