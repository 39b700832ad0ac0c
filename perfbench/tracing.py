"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each layer from outside the
program: it replaces module and class attributes, including names that
other modules imported directly (``wire.solve_y`` is the same function
object as ``curve.solve_y``), and restores them afterwards. Spans
(name, start, end, parent, operation id) are kept in memory and written
out once, when the run ends. Each span also holds the number of
``ledger.point_compress`` calls made inside it, which shows the ledger's
scan per append.

The benchmark installs the wrappers for every other operation only, so
one run yields traced and untraced samples of the same workload; their
difference is the tracer's own overhead.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from v2xauth import actors, ledger, wire
from v2xauth.crypto import curve, hashes, signatures, symmetric

# (layer, owner, attribute). Module functions are patched wherever the
# same object is bound in a v2xauth module; methods are patched on the class.
SPAN_TARGETS = [
    ("wire", wire.AuthRequest, "decode"),
    ("wire", wire.AuthRequest, "encode"),
    ("wire", wire.AuthReply, "decode"),
    ("wire", wire.AuthReply, "encode"),
    ("wire", wire.AuthAck, "decode"),
    ("curve", curve, "msm2"),
    ("curve", curve, "scalar_mul"),
    ("curve", curve, "solve_y"),
    ("hashes", hashes, "h0"),
    ("hashes", hashes, "h1"),
    ("hashes", hashes, "h2"),
    ("hashes", hashes, "h3"),
    ("hashes", hashes, "h4"),
    ("hashes", hashes, "h5"),
    ("hashes", hashes, "h6"),
    ("hashes", hashes, "hash_to_scalar"),
    ("hashes", hashes, "xof_bytes"),
    ("symmetric", symmetric, "sym_encrypt"),
    ("symmetric", symmetric, "sym_decrypt"),
    ("symmetric", symmetric, "pid_encrypt"),
    ("symmetric", symmetric, "pid_decrypt"),
    ("signatures", signatures, "aenc"),
    ("signatures", signatures, "adec"),
    ("signatures", signatures, "sign"),
    ("signatures", signatures, "verify"),
    ("ledger", ledger.Ledger, "append"),
    ("ledger", ledger.LedgerView, "find_by_ch"),
    ("ledger", ledger.LedgerView, "sync_to"),
    ("ledger", ledger.LedgerView, "is_revoked"),
    ("actors", actors.RoadsideUnit, "handle_request"),
    ("actors", actors.RoadsideUnit, "handle_ack"),
    ("actors", actors.Vehicle, "start_handover"),
    ("actors", actors.Vehicle, "handle_reply"),
    ("actors", actors.Vehicle, "build_registration"),
    ("actors", actors.Vehicle, "finish_registration"),
    ("actors", actors.Authority, "handle_registration"),
    ("actors", actors.RegionManager, "complete_registration"),
    ("actors", actors.RegionManager, "mint_pseudonym"),
]

# Called thousands of times per ledger append; a span each would swamp the
# append it sits in, so it only bumps a counter that every span snapshots.
COUNT_TARGET = (ledger, "point_compress")

# The per-layer metrics of a traced run, with their units. Times are per
# call unless the name says per operation; calls are per operation.
REJECT_NAMES = [
    "ReplayDetected",
    "StaleTimestamp",
    "UnknownCredential",
    "RevokedCredential",
    "ExpiredRegistration",
    "BadKeyConfirm",
    "BadAck",
]
PER_LAYER = {
    "wire.decode_request_ms": "ms",
    "curve.solve_y_ms": "ms",
    "curve.solve_y_calls": "calls/op",
    "curve.msm2_ms": "ms",
    "curve.msm2_calls": "calls/op",
    "curve.scalar_mul_ms": "ms",
    "curve.scalar_mul_calls": "calls/op",
    "signatures.aenc_ms": "ms",
    "signatures.adec_ms": "ms",
    "signatures.sign_ms": "ms",
    "signatures.verify_ms": "ms",
    "ledger.append_ms": "ms",
    "ledger.point_compress_calls": "calls/append",
    "ledger.find_by_ch_ms": "ms",
    "ledger.sync_to_ms": "ms",
    "hashes.ms_per_op": "ms/op",
    "symmetric.ms_per_op": "ms/op",
    "actors.handle_request_self_ms": "ms",
    "actors.reject_ms.ReplayDetected": "ms",
    "actors.reject_ms.StaleTimestamp": "ms",
    **{f"actors.rejects.{name}": "count" for name in REJECT_NAMES},
    "queue.wait_p99_ms": "ms",
    "queue.utilisation": "ratio",
    "actors.sessions_held": "count",
    "actors.rotation_updates": "count",
    "actors.rotation_useful_ratio": "ratio",
    "actors.replay_cache_size": "count",
    "actors.inline_point_uses": "count",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def _v2xauth_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("v2xauth") and m is not None]


class Tracer:
    """Records spans around layer calls while installed."""

    def __init__(self):
        self.spans: list = []
        self._compress_calls = [0]
        self._stack: list[int] = []
        self._op = -1
        self._patches = self._plan()

    def _plan(self):
        """(owner, attribute, original, wrapped) for every binding to patch."""
        plan = []
        modules = _v2xauth_modules()
        for layer, owner, attr in SPAN_TARGETS:
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, attr)
                name = f"{layer}.{owner.__name__}.{attr}"
                if isinstance(raw, classmethod):
                    plan.append((owner, attr, raw, classmethod(self._span_wrapper(name, raw.__func__))))
                else:
                    plan.append((owner, attr, raw, self._span_wrapper(name, raw)))
                continue
            original = getattr(owner, attr)
            wrapped = self._span_wrapper(f"{layer}.{attr}", original)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        plan.append((module, bound_name, original, wrapped))
        owner, attr = COUNT_TARGET
        plan.append((owner, attr, getattr(owner, attr), self._count_wrapper(getattr(owner, attr))))
        return plan

    def _span_wrapper(self, name, fn):
        spans, stack, calls, clock = self.spans, self._stack, self._compress_calls, time.thread_time_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = calls[0]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op, calls[0] - before)

        return traced

    def _count_wrapper(self, fn):
        calls = self._compress_calls

        def counted(pt):
            calls[0] += 1
            return fn(pt)

        return counted

    def install(self, op: int) -> None:
        self._op = op
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._op = -1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- derived per-layer numbers -------------------------------------------

    def layer_metrics(self, traced_ops: int, factor: float) -> dict:
        """Per-call times, calls per operation and per-layer self time.
        Times are scaled by ``factor`` from raw CPU time to reference time."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total_ns = defaultdict(int)
        self_ns = defaultdict(int)
        calls = Counter()
        layer_self_ns = defaultdict(int)
        compress_calls = Counter()
        for idx, (name, start, end, _, _, compressed) in enumerate(self.spans):
            own = end - start - child_ns[idx]
            compress_calls[name] += compressed
            total_ns[name] += end - start
            self_ns[name] += own
            calls[name] += 1
            layer_self_ns[name.split(".", 1)[0]] += own

        ms = factor / 1e6

        def per_call_ms(name):
            return total_ns[name] / calls[name] * ms if calls[name] else 0.0

        def per_op(name):
            return calls[name] / traced_ops if traced_ops else 0.0

        appends = calls["ledger.Ledger.append"]
        handle = "actors.RoadsideUnit.handle_request"
        return {
            "wire.decode_request_ms": per_call_ms("wire.AuthRequest.decode"),
            "curve.solve_y_ms": per_call_ms("curve.solve_y"),
            "curve.solve_y_calls": per_op("curve.solve_y"),
            "curve.msm2_ms": per_call_ms("curve.msm2"),
            "curve.msm2_calls": per_op("curve.msm2"),
            "curve.scalar_mul_ms": per_call_ms("curve.scalar_mul"),
            "curve.scalar_mul_calls": per_op("curve.scalar_mul"),
            "signatures.aenc_ms": per_call_ms("signatures.aenc"),
            "signatures.adec_ms": per_call_ms("signatures.adec"),
            "signatures.sign_ms": per_call_ms("signatures.sign"),
            "signatures.verify_ms": per_call_ms("signatures.verify"),
            "ledger.append_ms": per_call_ms("ledger.Ledger.append"),
            "ledger.point_compress_calls": compress_calls["ledger.Ledger.append"] / appends if appends else 0.0,
            "ledger.find_by_ch_ms": per_call_ms("ledger.LedgerView.find_by_ch"),
            "ledger.sync_to_ms": per_call_ms("ledger.LedgerView.sync_to"),
            "hashes.ms_per_op": layer_self_ns["hashes"] / traced_ops * ms if traced_ops else 0.0,
            "symmetric.ms_per_op": layer_self_ns["symmetric"] / traced_ops * ms if traced_ops else 0.0,
            "actors.handle_request_self_ms": self_ns[handle] / calls[handle] * ms if calls[handle] else 0.0,
            "trace.spans": len(self.spans),
        }
