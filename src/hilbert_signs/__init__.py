"""Sign statistics of Hecke eigenvalues reconstructed over real quadratic fields.

The package is organized bottom-up: exact quadratic-field arithmetic
(field_arith), twisted quadratic characters (characters), formal series
indexed by integral ideals (formal_series), the sign-extraction pipeline
(sign_pipeline), semicircle-law statistics (sato_tate), and data plumbing
for eigenvalue sources (curves, eigen_io, cli).  The commands of cli are
the interface; in Python, import each name from its module.
"""
