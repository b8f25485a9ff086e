"""End-to-end benchmark of the loop-partitioning pipeline (see ``run.py``)."""
