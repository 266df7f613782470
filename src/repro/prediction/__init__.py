"""Workload predictors for placement-time reference utilizations.

The paper performs VM placement every hour "with predictions of upcoming
workloads using a last-value predictor" and attributes the residual QoS
violations of all three compared schemes to mis-predictions during abrupt
workload changes.  This subpackage provides the last-value predictor plus
the alternatives used by the ablation benches.
"""

from repro.prediction.history import ReferenceHistory
from repro.prediction.predictors import (
    EwmaPredictor,
    LastValuePredictor,
    MaxOverHistoryPredictor,
    MovingAveragePredictor,
    OraclePredictor,
    Predictor,
)

__all__ = [
    "Predictor",
    "LastValuePredictor",
    "MovingAveragePredictor",
    "EwmaPredictor",
    "MaxOverHistoryPredictor",
    "OraclePredictor",
    "ReferenceHistory",
]
