"""lakebench: ``repro serve`` under four traffic mixes at 1k/10k models.

See ``README.md`` beside this file.  Entry points: ``run.py`` (the
command in ``BENCHMARK.json``) and ``python -m benchmarks.lakebench``.
"""
