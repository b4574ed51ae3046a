"""Scale small-SF traces to the paper's SF-1000.

TPC-H cardinalities are (by spec) linear in the scale factor for all
tables except ``nation`` (25 rows) and ``region`` (5 rows), which are
constant.  Query data flows therefore scale linearly too, with two
documented exceptions handled here:

- group counts saturate at their domain size (e.g. Q1 always has 4
  groups; Q18's group count tracks the customer×order domain and keeps
  growing);
- the constant-size dimension tables contribute constant bytes.

Every other :class:`~repro.perf.trace.QueryTrace` field scales by the
SF ratio unless :data:`KEPT` names it as not a volume: an ``int`` is
truncated, a ``float`` (the injected fault stalls — a per-page fault
rate times pages that grow with SF) multiplied, a ``(table, column)``
map scaled per entry.  The copy is derived from the dataclass's fields,
so a field added to the trace is scaled, kept, or refused for lack of a
rule; it cannot be dropped.
"""

from __future__ import annotations

from dataclasses import fields, replace
from numbers import Integral, Real

from repro.perf.trace import OpTrace, QueryTrace

# Tables whose cardinality does not grow with SF.
CONSTANT_TABLES = frozenset({"nation", "region"})
# Fields that are not volumes: identity, verdicts and ratios.
KEPT = frozenset(
    {"query", "suspended", "suspend_reason", "offload_fraction_rows"}
)


def scale_trace(
    trace: QueryTrace,
    target_sf: float,
    *,
    group_domains: dict[str, int] | None = None,
) -> QueryTrace:
    """Re-express ``trace`` (collected at ``trace.scale_factor``) at
    ``target_sf``.

    ``group_domains`` optionally caps the scaled group count of
    aggregate ops by detail key (aggregation over an enumerated domain
    does not grow with SF).
    """
    if trace.scale_factor <= 0:
        raise ValueError("source trace has no scale factor")
    ratio = target_sf / trace.scale_factor
    cap = None if group_domains is None else group_domains.get(trace.query)
    ops = [_scale_op(op, ratio, cap) for op in trace.ops]
    changes = {
        "scale_factor": target_sf,
        "ops": ops,
        "total_intermediate_bytes": sum(op.bytes_out for op in ops),
    }
    for f in fields(trace):
        if f.name in changes or f.name in KEPT:
            continue
        value = getattr(trace, f.name)
        if isinstance(value, dict):  # (table, column) -> bytes or pages
            changes[f.name] = {
                key: n if key[0] in CONSTANT_TABLES else int(n * ratio)
                for key, n in value.items()
            }
        elif isinstance(value, bool) or not isinstance(value, Real):
            raise TypeError(f"no scaling rule for QueryTrace.{f.name}")
        elif isinstance(value, Integral):
            changes[f.name] = int(value * ratio)
        else:
            changes[f.name] = value * ratio
    return replace(trace, **changes)


def _scale_op(op: OpTrace, ratio: float, cap: int | None) -> OpTrace:
    factor = ratio
    if op.op == "scan" and op.detail in CONSTANT_TABLES:
        factor = 1.0
    scaled_op = replace(
        op,
        rows_in=int(op.rows_in * factor),
        rows_out=int(op.rows_out * factor),
        bytes_in=int(op.bytes_in * factor),
        bytes_out=int(op.bytes_out * factor),
        groups=int(op.groups * factor),
    )
    if op.op in ("aggregate", "distinct"):
        # Aggregations over enumerated domains (return flags, ship
        # modes, nations x years) do not gain groups with SF; the
        # signature is a group count tiny relative to the input.
        constant_domain = op.rows_in > 1000 and op.groups <= max(
            64, int(op.rows_in * 0.001)
        )
        if constant_domain:
            scaled_op.rows_out = op.rows_out
            scaled_op.groups = op.groups
            scaled_op.bytes_out = op.bytes_out
        if cap is not None:
            scaled_op.rows_out = min(scaled_op.rows_out, cap)
            scaled_op.groups = min(scaled_op.groups, cap)
            if scaled_op.rows_in:
                per_row = op.bytes_out / max(op.rows_out, 1)
                scaled_op.bytes_out = int(per_row * scaled_op.rows_out)
    return scaled_op
