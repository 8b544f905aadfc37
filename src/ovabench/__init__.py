"""ovabench: four probability heads for a small classifier, compared on
calibration, covariate shift, and out-of-distribution behavior."""

__version__ = "0.1.0"
