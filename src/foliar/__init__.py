"""Certificates for persistently foliar knots from diagrammatic input.

The package decides, from a planar diagram, braid word, or weighted
planar tree, whether the input satisfies a set of sufficient twist and
side-graph conditions; it also classifies surgeries on the three-chain
link exactly and plans slope configurations for crossing circles.
"""

from .arborescent import (
    check_arborescent,
    family_tree,
    generate_diagram,
    make_pretzel_pd,
    parse_tree,
)
from .braids import (
    braid_to_diagram,
    check_braid,
    check_interleaving,
    closure_components,
    parse_braid,
    reduce_braid,
)
from .criterion import Status, Verdict, check_main, diagnose
from .diagram import LinkDiagram, parse_pd
from .errors import FoliarError, InputError, InternalError
from .sidegraphs import (
    build_side_graphs,
    connectivity_report,
    normalize_assumption2,
)
from .surgery import (
    Slope,
    augment,
    circles_from_counts,
    classify_borromean,
    plan_configurations,
    verify_plan,
)
from .tait import build_tait, check_tait, contract
from .twists import (
    collapse,
    detect_twist_regions,
    reduce_assumption1,
)

__version__ = "0.1.0"

__all__ = [
    "FoliarError",
    "InputError",
    "InternalError",
    "LinkDiagram",
    "Slope",
    "Status",
    "Verdict",
    "augment",
    "braid_to_diagram",
    "build_side_graphs",
    "build_tait",
    "check_arborescent",
    "check_braid",
    "check_interleaving",
    "check_main",
    "check_tait",
    "circles_from_counts",
    "classify_borromean",
    "closure_components",
    "collapse",
    "connectivity_report",
    "contract",
    "detect_twist_regions",
    "diagnose",
    "family_tree",
    "generate_diagram",
    "make_pretzel_pd",
    "normalize_assumption2",
    "parse_braid",
    "parse_pd",
    "parse_tree",
    "plan_configurations",
    "reduce_braid",
    "reduce_assumption1",
    "verify_plan",
]
