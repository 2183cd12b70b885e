"""Miss classification: the paper's essential/useless scheme and the two

prior schemes it is compared against (Eggers, Torrellas)."""

from .breakdown import (
    DuboisBreakdown,
    MissClass,
    SimpleBreakdown,
)
from .compare import ClassificationComparison, compare_classifications
from .dubois import DuboisClassifier, classify
from .eggers import EggersClassifier
from .reference import ReferenceDuboisClassifier
from .torrellas import TorrellasClassifier

__all__ = [
    "ClassificationComparison",
    "DuboisBreakdown",
    "DuboisClassifier",
    "EggersClassifier",
    "MissClass",
    "ReferenceDuboisClassifier",
    "SimpleBreakdown",
    "TorrellasClassifier",
    "classify",
    "compare_classifications",
]
