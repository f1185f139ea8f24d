"""The repo benchmark (see ``perf/README.md``); run ``python perf/run.py``."""
