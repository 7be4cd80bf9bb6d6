"""Evaluation-section reproductions: one module per paper table, plus
the HiBench comparison behind Figures 4–5 (``hibench``) and the §6.4–6.5
ablations (``ablations``). Each module's ``run(...)`` returns plain data
structures, with defaults that produce the committed results, and a
formatter prints rows shaped like the paper's. Every tuning task goes
through ``harness.tune``. ``registry.EXPERIMENTS`` names each run, and
``python -m repro.experiments <name>`` prints one of them. This package
imports none of its modules, so importing one loads only what it uses."""
