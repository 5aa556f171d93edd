"""Self-distillation prototype training for speaker embeddings at desk
scale: the training objective with covariance dimension regularizers,
cosine scoring with Z/T/S/AS cohort normalization, and EER/minDCF
evaluation — all in double-precision numpy with hand-derived,
finite-difference-verified gradients.
"""
