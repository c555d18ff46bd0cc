"""Single source of truth for the package version (import-cycle-free: both
``repro`` and its subpackages read it from here)."""

__version__ = "2.1.0"
