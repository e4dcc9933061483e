"""Repository benchmark: paper regeneration, open-loop serving and queue drain.

``python -m bench run`` runs the workloads against the program as users
invoke it and prints every end-to-end metric; ``--trace`` adds a traced
rerun that attributes time to layers.  ``python -m bench compare`` judges
two sets of runs against the bounds in ``BENCHMARK.json`` and
``bench/metrics.py``.  See ``bench/README.md``.
"""
