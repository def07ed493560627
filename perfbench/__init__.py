"""End-to-end and per-layer benchmark for repro-vliw (``python3 perfbench/run.py``).

Lives outside ``src/repro`` on purpose: every ``.py`` file there feeds
``package_source_hash`` and therefore every cache key.  Layers are timed
from outside by wrapping their public functions (:mod:`perfbench.tracing`);
no program code is edited.
"""
