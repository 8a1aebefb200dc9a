"""The sketch-engine registry: one name, one guarantee, one wire tag.

The library ships three interchangeable engines behind the runtime-
checkable :class:`~repro.core.protocols.SketchProtocol`:

=========  ==========================  ===========  ==========
engine     guarantee                   mergeable    wire magic
=========  ==========================  ===========  ==========
paper      deterministic (Lemma 5)     yes          MRLSKT01
paper      adaptive: unknown N         no           ADPSKT01
kll        probabilistic (Hoeffding)   yes          KLLSKT01
frugal     heuristic (no bound)        no           FRGSKT01
windowed   inherits its inner engine   yes          WINSKT01
expdecay   inherits its inner engine   yes          EXDSKT01
=========  ==========================  ===========  ==========

The paper engine has two formats: ``MRLSKT01`` for a fixed-N
framework and ``ADPSKT01`` for an
:class:`~repro.core.adaptive.AdaptiveQuantileSketch`.  Both read as
engine ``"paper"``; :data:`ENGINES` holds the fixed-N spec, and only
the magic table knows the adaptive one.  ``windowed`` and
``expdecay`` (:mod:`repro.windows`) are *composite* engines: a ring of
buckets, each itself a paper/kll/frugal sketch.  They carry their
inner engine in their own wire format, so the usual magic dispatch and
same-engine merge rules apply to them unchanged.

Every engine's serialised form starts with its 8-byte magic, so a
payload is self-describing: :func:`engine_of` reads the tag,
:func:`loads_any` / :func:`load_any_from` / :func:`dumps_any` dispatch
on it, and :func:`repro.core.serialize.merge_serialized` uses the same
peek to refuse mixed-engine folds with a typed
:class:`~repro.core.errors.EngineMismatchError`.  The service snapshot
and FETCH paths route through here, which is what lets a mixed-engine
registry journal, snapshot and recover bit-identically.

See docs/api.md for the engine-selection table with measured numbers
(BENCH_engines.json).
"""

from __future__ import annotations

from typing import Any, BinaryIO, Callable, Dict, NamedTuple, Tuple

from . import serialize
from .adaptive import ADAPTIVE_MAGIC, AdaptiveQuantileSketch
from .errors import ConfigurationError, StorageError
from .framework import QuantileFramework
from .frugal import FRUGAL_MAGIC, FrugalBank, FrugalSketch
from .kll import KLL_MAGIC, KLLSketch

__all__ = [
    "EngineSpec",
    "ENGINES",
    "ENGINE_NAMES",
    "DEFAULT_ENGINE",
    "engine_of",
    "engine_of_sketch",
    "spec_of",
    "loads_any",
    "load_any_from",
    "dumps_any",
]

DEFAULT_ENGINE = "paper"


class EngineSpec(NamedTuple):
    """Static description of one sketch engine."""

    name: str
    magic: bytes
    #: summaries combine via ``absorb`` with the guarantee preserved
    mergeable: bool
    #: ``error_bound()`` is a certified bound (not ``inf``)
    certified: bool
    loads: Callable[[bytes], Any]
    read_from: Callable[[BinaryIO], Any]
    dumps: Callable[[Any], bytes]


def _paper_spec() -> EngineSpec:
    return EngineSpec(
        name="paper",
        magic=b"MRLSKT01",
        mergeable=True,
        certified=True,
        loads=serialize.loads,
        read_from=serialize.load_from,
        dumps=serialize.dumps,
    )


def _kll_spec() -> EngineSpec:
    return EngineSpec(
        name="kll",
        magic=KLL_MAGIC,
        mergeable=True,
        certified=True,
        loads=KLLSketch.from_bytes,
        read_from=KLLSketch.read_from,
        dumps=lambda sk: sk.to_bytes(),
    )


def _frugal_spec() -> EngineSpec:
    return EngineSpec(
        name="frugal",
        magic=FRUGAL_MAGIC,
        mergeable=False,
        certified=False,
        loads=FrugalSketch.from_bytes,
        read_from=FrugalSketch.read_from,
        dumps=lambda sk: sk.to_bytes(),
    )


def _adaptive_spec() -> EngineSpec:
    return EngineSpec(
        name="paper",
        magic=ADAPTIVE_MAGIC,
        mergeable=False,
        certified=True,
        loads=AdaptiveQuantileSketch.from_bytes,
        read_from=AdaptiveQuantileSketch.read_from,
        dumps=lambda sk: sk.to_bytes(),
    )


def _ring_spec(name: str, magic: bytes, cls_name: str) -> EngineSpec:
    # repro.windows imports core; resolve the ring class lazily at call
    # time so the registry can be built while core is still importing
    def ring() -> Any:
        from .. import windows

        return getattr(windows, cls_name)

    return EngineSpec(
        name=name,
        magic=magic,
        mergeable=True,
        certified=True,
        loads=lambda raw: ring().from_bytes(raw),
        read_from=lambda fh: ring().read_from(fh),
        dumps=lambda sk: sk.to_bytes(),
    )


#: name -> spec for every engine the library ships
ENGINES: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        _paper_spec(),
        _kll_spec(),
        _frugal_spec(),
        _ring_spec("windowed", b"WINSKT01", "WindowedSketch"),
        _ring_spec("expdecay", b"EXDSKT01", "ExpDecaySketch"),
    )
}

ENGINE_NAMES: Tuple[str, ...] = tuple(ENGINES)

_ADAPTIVE = _adaptive_spec()

_BY_MAGIC: Dict[bytes, EngineSpec] = {
    spec.magic: spec for spec in (*ENGINES.values(), _ADAPTIVE)
}


def get_engine(name: str) -> EngineSpec:
    """The spec for *name*, or :class:`ConfigurationError` if unknown."""
    spec = ENGINES.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown sketch engine {name!r}; choose one of {ENGINE_NAMES}"
        )
    return spec


def spec_of(payload: "bytes | bytearray | memoryview") -> EngineSpec:
    """The spec whose format a serialised summary is (peeks the magic)."""
    head = bytes(payload[:8])
    spec = _BY_MAGIC.get(head)
    if spec is None:
        raise StorageError(
            f"bad magic {head!r}: not a serialised sketch of any known engine"
        )
    return spec


def engine_of(payload: "bytes | bytearray | memoryview") -> str:
    """Engine name a serialised summary belongs to (peeks the magic tag)."""
    return spec_of(payload).name


def engine_of_sketch(sketch: Any) -> str:
    """Engine name of a live sketch object."""
    if isinstance(sketch, (FrugalSketch, FrugalBank)):
        return "frugal"
    if isinstance(sketch, KLLSketch):
        return "kll"
    if isinstance(sketch, QuantileFramework):
        return "paper"
    # imported last: a process that holds no ring never loads it
    from ..windows import ExpDecaySketch, WindowedSketch

    if isinstance(sketch, WindowedSketch):
        return "windowed"
    if isinstance(sketch, ExpDecaySketch):
        return "expdecay"
    # sketch/adaptive wrappers around the paper framework
    return "paper"


def loads_any(raw: bytes) -> Any:
    """Deserialise a summary of any engine (dispatch on the magic tag)."""
    return spec_of(raw).loads(raw)


def load_any_from(fh: BinaryIO) -> Any:
    """Read one summary of any engine from *fh* (self-delimiting formats).

    Peeks the 8-byte magic; works on non-seekable streams by wrapping
    the peeked prefix back in front of the remaining stream.
    """
    import io

    head = fh.read(8)
    if len(head) < 8:
        raise StorageError("truncated sketch: no engine magic")
    spec = spec_of(head)

    class _Rejoined(io.RawIOBase):
        def __init__(self) -> None:
            self._head = head

        def readable(self) -> bool:  # pragma: no cover - io protocol
            return True

        def read(self, size: int = -1) -> bytes:
            if self._head:
                if size < 0 or size >= len(self._head):
                    out, self._head = self._head, b""
                    return out
                out, self._head = self._head[:size], self._head[size:]
                return out
            return fh.read(size)

    return spec.read_from(_Rejoined())  # type: ignore[arg-type]


def dumps_any(sketch: Any) -> bytes:
    """Serialise a live sketch of any engine to its wire format.

    Paper-engine wrappers (:class:`~repro.core.sketch.QuantileSketch`)
    serialise their inner framework -- the wire format only carries
    summary state, so the round-trip comes back as the framework, same
    as :func:`repro.core.serialize.dumps`.  An adaptive sketch
    serialises to ``ADPSKT01``.
    """
    if isinstance(sketch, AdaptiveQuantileSketch):
        return _ADAPTIVE.dumps(sketch)
    name = engine_of_sketch(sketch)
    if name == "paper":
        inner = getattr(sketch, "_impl", None)
        if not isinstance(sketch, QuantileFramework) and isinstance(
            inner, QuantileFramework
        ):
            sketch = inner
    return ENGINES[name].dumps(sketch)
