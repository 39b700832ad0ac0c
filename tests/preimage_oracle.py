"""Type-dispatching preimage encoder: the oracle for ``hashes``' layouts.

Every SHAKE-256 input in ``v2xauth.crypto.hashes`` is laid out field by
field. This encoder builds the same bytes from a tag and an argument
list, choosing each field's encoding from the argument's Python type, so
the tests can hold every fixed layout to it.
"""

from v2xauth.crypto.curve import SCALAR_BYTES, point_compress


def _encode_arg(arg) -> bytes:
    if isinstance(arg, (bytes, bytearray)):
        raw = bytes(arg)
    elif isinstance(arg, int):
        raw = arg.to_bytes(SCALAR_BYTES, "big")
    elif arg is None or isinstance(arg, tuple):
        raw = point_compress(arg)
    else:
        raise TypeError(f"unhashable protocol argument: {type(arg)!r}")
    return len(raw).to_bytes(4, "big") + raw


def encode_preimage(tag: int, args) -> bytes:
    """Tag byte plus length-prefixed arguments; injective across tags."""
    return bytes([tag]) + b"".join(_encode_arg(a) for a in args)
