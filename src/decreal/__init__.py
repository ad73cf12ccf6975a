"""decreal: real numbers as infinite decimal digit streams.

Reals are taken at face value -- signed streams of decimal digits with no
nine-tails and no minus zero -- and all structure is built directly on the
digits: comparison with explicit separation witnesses, suprema by digitwise
filtering, arithmetic that computes each output digit from finitely many
input digits once a hint settles the one undecidable question (does the
result terminate?), generating sequences with explicit moduli, p-adic
streams where every operation is local, encodings of streams onto one-way
machine tapes, and the classification of the shift maps x -> d + x and
x -> d * x by letter-level computability.

Import each name from its own module (``decreal.decimals``, ``decreal.weak``,
``decreal.expr``, ...): the package binds none and loads no module itself.
"""

__version__ = "0.1.0"
