"""The paper's contribution: general & efficient online Spark tuning.

- :mod:`repro.core.config_space` — the 30-parameter Spark space (§2.2),
- :mod:`repro.core.objective`    — generalized objective & constraints (Eq. 1),
- :mod:`repro.core.gp`           — mixed-kernel Gaussian process (Eq. 2/4),
- :mod:`repro.core.acquisition`  — EI / EIC / safe region (Eq. 3, 6–8) and
                                   ``propose``, the scoring step Ours and the
                                   BO baselines share,
- :mod:`repro.core.subspace`     — fANOVA sub-space + adaptive K (§4.1),
- :mod:`repro.core.agd`          — approximate gradient descent (Eq. 9–11),
- :mod:`repro.core.generator`    — Algorithm 2 and its candidate generation,
- :mod:`repro.core.bo`           — run history and the surrogates fitted on it,
- :mod:`repro.core.meta`         — meta-learning (§5),
- :mod:`repro.core.controller`   — OnlineTune controller (§3.1).
"""
