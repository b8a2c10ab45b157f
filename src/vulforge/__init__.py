"""vulforge: ensemble orchestration for pluggable code-vulnerability
classifiers — bagging, boosting, stacking, and dynamic gated stacking,
with reproducible metrics, rank tables, and divergence/overlap analyses.

The API is the modules (``vulforge.ensembles``, ``vulforge.learners``,
...); importing the package loads none of them.
"""

__version__ = "0.1.0"

#: the meta-learner kinds of ``vulforge.metamodels``, kept here so that the
#: CLI parser can offer them without loading numpy
META_KINDS = ("lr", "rf", "svm", "knn")
