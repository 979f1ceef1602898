"""The FChain core: the paper's contribution.

Pipeline (paper Sec. II):

1. :mod:`repro.core.prediction` — online Markov-chain models learn each
   metric's normal fluctuation pattern (PRESS-style).
2. :mod:`repro.core.cusum` / :mod:`repro.core.smoothing` /
   :mod:`repro.core.outliers` — CUSUM + bootstrap change point detection on
   smoothed series, magnitude-outlier filtering (the PAL steps).
3. :mod:`repro.core.burst` — FFT burst extraction yields a per-change-point
   *expected prediction error*; :mod:`repro.core.selection` keeps only
   change points whose actual prediction error exceeds it, and rolls back
   tangents to find the true onset.
4. :mod:`repro.core.propagation` / :mod:`repro.core.pinpoint` — onset-sorted
   propagation chains, concurrency classification, dependency-based
   filtering of spurious propagations, external-factor detection.
5. :mod:`repro.core.validation` — online pinpointing validation by scaling
   the implicated resource and watching the SLO.
6. :mod:`repro.core.fchain` — the FChainSlave/FChainMaster facade.
"""

from repro.core.config import FChainConfig
from repro.core.diagnosis import Diagnosis
from repro.core.fchain import FChain, FChainMaster, FChainSlave
from repro.core.pinpoint import PinpointResult

__all__ = [
    "Diagnosis",
    "FChain",
    "FChainConfig",
    "FChainMaster",
    "FChainSlave",
    "PinpointResult",
]
