"""Training laboratory for dual-encoder retrievers.

Implements two training objectives over the same batch similarity
matrix: the per-query softmax contrastive loss and the pairwise
Mann-Whitney loss (binary cross-entropy over positive-negative score
differences), together with a toy feature-hashing dual encoder, analytic
gradients, hard-negative mining, a training loop, and an evaluation
suite (Mann-Whitney U, pooled AUC, ROC, MRR@10, nDCG@10).
"""

__version__ = "0.1.0"
