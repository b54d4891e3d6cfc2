"""Deterministic fingerprints for configurations, datasets and trained states.

Every artifact in the store is addressed by a *fingerprint*: a SHA-256 digest
of a canonical JSON rendering of everything that determines the artifact's
content — the component's configuration, the dataset it was trained on and the
random seed.  Because training in this codebase is fully deterministic given
those inputs, two runs that produce the same fingerprint produce bitwise-equal
parameters, so a fingerprint hit can safely replace training.

Three flavours are provided:

* :func:`fingerprint` — hash an arbitrary nest of dataclasses / dicts /
  sequences / scalars (configuration objects);
* :func:`state_fingerprint` — hash a ``state_dict`` (trained parameters), used
  when an artifact depends on *another* trained component;
* :func:`dataset_fingerprint` / :func:`examples_fingerprint` — content hashes
  of a :class:`~repro.data.records.SequenceDataset` and of training examples.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import weakref
from typing import Dict, Iterable

import numpy as np

#: Length of the hex digests used as directory names.  80 bits is far beyond
#: collision risk for the number of artifacts a store will ever hold.
DIGEST_CHARS = 20

#: Version of the *training semantics*.  Configs, datasets and seeds do not
#: capture the training algorithms themselves, so any change that alters what
#: training produces from identical inputs (optimiser maths, batch iteration
#: order, prompt rendering, ...) MUST bump this constant — it salts every
#: fingerprint, invalidating artifacts that the current code can no longer
#: reproduce.  (FORMAT_VERSION in :mod:`repro.store.store` only guards the
#: on-disk layout, not training behaviour.)
#:
#: v2: the LM head moved to deterministic reduction orders (restricted /
#: rowwise heads replacing the fused full-vocabulary GEMM), which shifts
#: trained parameters by rounding differences relative to v1 artifacts.  The
#: ``lm_head`` implementation flags are deliberately *not* fingerprinted:
#: restricted and full-reference paths produce bitwise-identical artifacts.
#:
#: v3: every training loop evaluates batches as canonical microshards with a
#: fixed-shape pairwise-sum gradient tree and per-shard dropout reseeding
#: (see :mod:`repro.parallel.data`).  This changes trajectories relative to
#: v2 (loss restructuring and dropout streams), but makes them invariant to
#: ``REPRO_DATA_WORKERS`` — which is therefore *not* fingerprinted: a
#: serial-trained artifact satisfies a data-parallel run bit for bit.
#:
#: v4: ``Tensor.gelu`` evaluates its cube as ``x * x * x`` instead of
#: ``x ** 3`` (libm ``pow``), and the squares in its backward by
#: multiplication.  Same real function, different rounding, so every model
#: with a gelu feed-forward trains to slightly different parameters than v3.
TRAINING_CODE_VERSION = 4


def canonicalize(obj):
    """Render ``obj`` as a JSON-serialisable structure with deterministic order.

    Dataclasses are tagged with their class name so two config types with the
    same field values do not collide; dict keys are sorted; numpy scalars are
    converted to Python scalars and numpy arrays are replaced by a digest of
    their bytes.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: canonicalize(getattr(obj, f.name)) for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {str(key): canonicalize(value) for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(canonicalize(value), sort_keys=True) for value in obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        contiguous = np.ascontiguousarray(obj)
        return {
            "__ndarray__": hashlib.sha256(contiguous.tobytes()).hexdigest(),
            "shape": list(obj.shape),
            "dtype": str(obj.dtype),
        }
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for fingerprinting")


def fingerprint(*parts) -> str:
    """SHA-256 fingerprint (first :data:`DIGEST_CHARS` hex chars) of ``parts``.

    :data:`TRAINING_CODE_VERSION` is always included, so bumping it retires
    every previously stored artifact at once.
    """
    payload = json.dumps(
        [TRAINING_CODE_VERSION] + [canonicalize(part) for part in parts],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def state_fingerprint(state: Dict[str, np.ndarray]) -> str:
    """Content hash of a ``state_dict`` (keys, shapes, dtypes and raw bytes)."""
    digest = hashlib.sha256()
    for key in sorted(state):
        array = np.ascontiguousarray(np.asarray(state[key]))
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()[:DIGEST_CHARS]


#: Datasets are immutable once generated, so their content hash is memoised
#: per object — store-backed pipelines re-fingerprint the same dataset many
#: times (backbone, SimLM and bundle fingerprints all include it).
_DATASET_FP_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def dataset_fingerprint(dataset) -> str:
    """Content hash of a :class:`~repro.data.records.SequenceDataset`.

    Hashes the dataset name, catalog size and every user's item sequence, so
    any change to the underlying interactions (different scale, seed or
    generator version) invalidates all artifacts trained on it.
    """
    try:
        return _DATASET_FP_CACHE[dataset]
    except (KeyError, TypeError):
        pass
    digest = hashlib.sha256()
    digest.update(dataset.name.encode("utf-8"))
    digest.update(str(dataset.num_items).encode("utf-8"))
    for sequence in dataset.sequences():
        digest.update(str(sequence.user_id).encode("utf-8"))
        digest.update(np.asarray(sequence.item_ids, dtype=np.int64).tobytes())
    result = digest.hexdigest()[:DIGEST_CHARS]
    try:
        _DATASET_FP_CACHE[dataset] = result
    except TypeError:
        pass
    return result


def examples_fingerprint(examples: Iterable) -> str:
    """Content hash of a sequence of :class:`~repro.data.splits.SequenceExample`."""
    digest = hashlib.sha256()
    for example in examples:
        row = list(example.history) + [0, int(example.target), int(example.user_id)]
        digest.update(np.asarray(row, dtype=np.int64).tobytes())
    return digest.hexdigest()[:DIGEST_CHARS]
