"""Reference implementations the optimized code in ``src/`` is tested against.

Each oracle is the straightforward form of a component whose ``src/``
version was restructured for speed; tests hold the two to identical
(usually byte-identical) outputs.
"""
