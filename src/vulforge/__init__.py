"""vulforge: ensemble orchestration for pluggable code-vulnerability
classifiers — bagging, boosting, stacking, and dynamic gated stacking,
with reproducible metrics, rank tables, and divergence/overlap analyses.

The API is the modules (``vulforge.ensembles``, ``vulforge.learners``,
...); importing the package loads none of them.
"""

__version__ = "0.1.0"
