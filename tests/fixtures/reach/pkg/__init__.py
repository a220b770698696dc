"""A fixture package for ``tests/test_reach.py``: the reachability
census runs over it as it runs over ``src/repro``."""
