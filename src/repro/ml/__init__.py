"""NumPy ML substrate.

The paper relies on random forests (for fANOVA parameter importance and
the RFHOC/DAC baselines) and LightGBM (for the meta-learning similarity
regressor). Neither sklearn nor LightGBM is available offline, so this
package implements the needed model classes from scratch:

- :mod:`repro.ml.tree`   — CART regression tree as flat node arrays,
- :mod:`repro.ml.forest` — bagged random forest regressor,
- :mod:`repro.ml.fanova` — functional-ANOVA importance over a forest,
- :mod:`repro.ml.gbm`    — least-squares gradient-boosted trees.
"""
