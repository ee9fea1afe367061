"""curvemine: aggregate mined datapoints, reconstruct microdata from
published summaries, and fit, rank, validate and analyze a catalog of
parametric models."""

__version__ = "0.1.0"
