"""Partial non-demolition Bell measurement, the teleportation protocol it
enables, its information-disturbance analysis, and the continuous-variable
analogue: exact desk-scale simulation with every closed form cross-checked
against direct computation."""

__version__ = "0.1.0"
