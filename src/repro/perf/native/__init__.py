"""Holds only :mod:`repro.perf.native.runtime`, the numba import probe
the frozen end-to-end ruler reads; there is no native kernel tier."""
