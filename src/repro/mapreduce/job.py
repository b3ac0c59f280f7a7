"""Job definition: map / combine / reduce over key–value pairs."""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class MapReduceJob:
    """Base class for MapReduce jobs.

    Subclasses override :meth:`map` and :meth:`reduce`; :meth:`combine` is
    optional pre-aggregation that the engine applies per input split (as
    Hadoop applies combiners per spill).  ``kv_size`` supplies serialized
    sizes for the byte counters.  Every job in the library overrides it
    with its records' varint wire format: LASH's mining job emits that
    format's bytes and meters their ``len()``, the jobs with tuple keys
    meter ``len(encode_sequence(key))``.  The generic estimate meters
    ad-hoc jobs only.
    """

    #: descriptive name used in metrics and logs
    name: str = "job"

    def map(self, record: Any) -> Iterable[tuple[Any, Any]]:
        """Emit zero or more ``(key, value)`` pairs for one input record."""
        raise NotImplementedError

    def combine(self, key: Any, values: Sequence[Any]) -> Iterable[tuple[Any, Any]]:
        """Pre-aggregate map output within one split.

        The default is the identity combiner (no pre-aggregation).  A
        combiner must be algebraically safe: reducers see combined values.
        """
        return ((key, value) for value in values)

    #: set False to skip the combine stage entirely (identity semantics but
    #: without the per-key grouping cost)
    has_combiner: bool = False

    def reduce(self, key: Any, values: Sequence[Any]) -> Iterable[Any]:
        """Produce output records for one key group."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # serialization metering
    # ------------------------------------------------------------------

    def kv_size(self, key: Any, value: Any) -> int:
        """Serialized size in bytes of one emitted pair.

        The default estimates with a compact generic encoding.
        """
        return _generic_size(key) + _generic_size(value)


def _generic_size(obj: Any) -> int:
    """Rough serialized size of a generic Python value (fallback metering)."""
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return max(1, (obj.bit_length() + 7) // 7)
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return 1 + sum(_generic_size(x) for x in obj)
    if isinstance(obj, dict):
        return 1 + sum(
            _generic_size(k) + _generic_size(v) for k, v in obj.items()
        )
    return len(repr(obj))
