"""The repository benchmark: workloads, checks, tracing and the runner.

Everything here drives the program through its public API only
(``repro.api.Session``, ``repro.service``, ``repro.serve.Client`` plus a
``python -m repro.cli serve`` subprocess, ``repro.dse.DSERunner``,
``repro.sim``); see ``bench/README.md``.
"""
