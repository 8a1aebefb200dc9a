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
same-engine merge rules apply to them unchanged.  The table names each
engine's decoder without importing it: an engine's module loads with
the first of its sketches a process decodes or builds, so a server
holding only fixed-N paper metrics never loads KLL or Frugal.

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

import importlib
import sys
from typing import Any, BinaryIO, Callable, Dict, NamedTuple, Sequence, Tuple

from . import serialize
from .errors import ConfigurationError, StorageError
from .framework import QuantileFramework
from .serialize import _Reader, _StreamReader

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
    "merge_summaries",
]

DEFAULT_ENGINE = "paper"


class EngineSpec(NamedTuple):
    """Static description of one sketch engine."""

    name: str
    magic: bytes
    #: summaries combine (``merge_summaries``) with the guarantee preserved
    mergeable: bool
    #: ``error_bound()`` is a certified bound (not ``inf``)
    certified: bool
    #: the format's decoder: a reader just past the magic -> a sketch
    read: Callable[[_Reader], Any]
    dumps: Callable[[Any], bytes]


def _paper_spec() -> EngineSpec:
    return EngineSpec(
        name="paper",
        magic=b"MRLSKT01",
        mergeable=True,
        certified=True,
        read=serialize.read_framework,
        dumps=serialize.dumps,
    )


def _read_with(module: str, cls_name: str) -> Callable[[_Reader], Any]:
    """The decoder ``cls_name.read`` of *module* (relative to this
    package), imported at its first call: a process that never decodes
    or builds such a sketch never loads the engine, and
    :mod:`repro.windows` (which imports core) can be resolved while core
    is still importing."""

    def read(r: _Reader) -> Any:
        module_obj = importlib.import_module(module, __package__)
        return getattr(module_obj, cls_name).read(r)

    return read


def _read_adaptive(r: _Reader) -> Any:
    from .adaptive import AdaptiveQuantileSketch

    # the body is the epsilon, then the stage container
    return AdaptiveQuantileSketch.read_stages(r, r.f64("epsilon"))


def _spec(
    name: str,
    magic: bytes,
    read: Callable[[_Reader], Any],
    *,
    mergeable: bool = True,
    certified: bool = True,
) -> EngineSpec:
    return EngineSpec(
        name=name,
        magic=magic,
        mergeable=mergeable,
        certified=certified,
        read=read,
        dumps=lambda sk: sk.to_bytes(),
    )


#: name -> spec for every engine the library ships
ENGINES: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        _paper_spec(),
        _spec("kll", b"KLLSKT01", _read_with(".kll", "KLLSketch")),
        _spec(
            "frugal",
            b"FRGSKT01",
            _read_with(".frugal", "FrugalSketch"),
            mergeable=False,
            certified=False,
        ),
        _spec(
            "windowed", b"WINSKT01", _read_with("..windows", "WindowedSketch")
        ),
        _spec(
            "expdecay", b"EXDSKT01", _read_with("..windows", "ExpDecaySketch")
        ),
    )
}

ENGINE_NAMES: Tuple[str, ...] = tuple(ENGINES)

_ADAPTIVE = _spec("paper", b"ADPSKT01", _read_adaptive, mergeable=False)

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


def _loaded(module: str, *names: str) -> Tuple[type, ...]:
    """The classes *names* of engine module *module* if it is loaded,
    else ``()``: no sketch of an engine exists before its module does."""
    module_obj = sys.modules.get(f"{__package__}.{module}")
    if module_obj is None:
        return ()
    return tuple(getattr(module_obj, name) for name in names)


def _classify(sketch: Any) -> EngineSpec:
    if isinstance(sketch, QuantileFramework):
        return ENGINES["paper"]
    if isinstance(sketch, _loaded("adaptive", "AdaptiveQuantileSketch")):
        return _ADAPTIVE
    if isinstance(sketch, _loaded("frugal", "FrugalSketch", "FrugalBank")):
        return ENGINES["frugal"]
    if isinstance(sketch, _loaded("kll", "KLLSketch")):
        return ENGINES["kll"]
    # imported last: a process that holds no ring never loads it
    from ..windows import ExpDecaySketch, WindowedSketch

    if isinstance(sketch, WindowedSketch):
        return ENGINES["windowed"]
    if isinstance(sketch, ExpDecaySketch):
        return ENGINES["expdecay"]
    # sketch wrappers around the paper framework
    return ENGINES["paper"]


#: sketch class -> the spec of its format, filled as classes are first
#: seen (the class decides the answer, so it is found once per class)
_SPEC_OF_CLASS: Dict[type, EngineSpec] = {}


def _spec_of_sketch(sketch: Any) -> EngineSpec:
    spec = _SPEC_OF_CLASS.get(type(sketch))
    if spec is None:
        spec = _SPEC_OF_CLASS[type(sketch)] = _classify(sketch)
    return spec


def engine_of_sketch(sketch: Any) -> str:
    """Engine name of a live sketch object."""
    return _spec_of_sketch(sketch).name


def read_sketch(r: _Reader, magic: "bytes | None" = None) -> Any:
    """Decode one sketch payload from *r*: the path under every loader.

    Reads the magic once and runs its format's decoder through
    :func:`~repro.core.serialize.decode`; a given *magic* refuses every
    other format.  Raises only :class:`StorageError` on bad input.
    """
    head = bytes(r.take(8, "sketch magic"))
    spec = _BY_MAGIC.get(head) if magic in (None, head) else None
    if spec is None:
        want = "any known engine" if magic is None else magic.decode()
        raise StorageError(
            f"bad magic {head!r}: not a serialised sketch of {want}"
        )
    return serialize.decode(spec.read, r)


def load_sketch(
    raw: "bytes | bytearray | memoryview", magic: "bytes | None" = None
) -> Any:
    """:func:`read_sketch` over exactly the bytes *raw*."""
    r = _Reader(raw)
    sketch = read_sketch(r, magic)
    r.done("sketch payload")
    return sketch


def loads_any(raw: bytes) -> Any:
    """Deserialise a summary of any engine (dispatch on the magic tag)."""
    return load_sketch(raw)


def load_any_from(fh: BinaryIO) -> Any:
    """Read one summary of any engine from *fh*, leaving the stream just
    past it (every format is self-delimiting; no peek, no seek)."""
    return read_sketch(_StreamReader(fh))


def dumps_any(sketch: Any) -> bytes:
    """Serialise a live sketch of any engine to its wire format.

    Paper-engine wrappers (:class:`~repro.core.sketch.QuantileSketch`)
    serialise their inner framework -- the wire format only carries
    summary state, so the round-trip comes back as the framework, same
    as :func:`repro.core.serialize.dumps`.  An adaptive sketch
    serialises to ``ADPSKT01``.
    """
    spec = _spec_of_sketch(sketch)
    if spec is ENGINES["paper"] and not isinstance(sketch, QuantileFramework):
        inner = getattr(sketch, "_impl", None)
        if isinstance(inner, QuantileFramework):
            sketch = inner
    return spec.dumps(sketch)


def merge_summaries(summaries: Sequence[Any]) -> Any:
    """One summary of the same-engine *summaries*; none of them changes.

    The query-time merge of both a window query and ``merge_serialized``,
    so the two agree by construction.  Paper frameworks recombine under
    one OUTPUT (§4.9, :func:`~repro.core.parallel.recombine`); KLL
    sketches absorb into a fresh sketch; a lone summary of another
    engine comes back as it is; rings fold into a copy of the first.
    """
    first, rest = summaries[0], summaries[1:]
    if isinstance(first, QuantileFramework):
        from .parallel import recombine

        return recombine(summaries)
    if isinstance(first, _loaded("kll", "KLLSketch")):
        from .kll import KLLSketch

        merged = KLLSketch(
            first.eps, k=first.k, delta=first.delta, seed=first.seed
        )
        rest = summaries
    elif not rest:
        return first
    else:
        merged = loads_any(dumps_any(first))
    for sketch in rest:
        merged.absorb(sketch)
    return merged
