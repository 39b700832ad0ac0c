"""Stateless cryptographic primitives: group arithmetic, chameleon hash,
the domain-separated hash family, symmetric layer, and signatures.

Everything here is pure and reentrant; randomness always comes from a
caller-supplied RNG handle.
"""
