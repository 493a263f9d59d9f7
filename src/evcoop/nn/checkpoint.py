"""Parameter checkpointing on top of ``np.savez``.

A checkpoint holds a format version, every parameter under ``param.<name>``
and a JSON metadata string.  Reading refuses a file whose format version is
not an integer equal to ``FORMAT_VERSION`` or whose metadata is not a JSON
object.  Loading restores in place and refuses files whose parameter names
or shapes do not match, whose values are not float64, or whose values are
not finite.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .autodiff import Tensor

FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """Raised for unreadable, mismatched, or wrong-version checkpoint files."""


def save_checkpoint(path: str | Path, params: dict[str, Tensor],
                    meta: dict | None = None) -> None:
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array(FORMAT_VERSION),
        "meta_json": np.array(json.dumps(meta or {}, sort_keys=True)),
    }
    for name, p in params.items():
        arrays[f"param.{name}"] = p.data
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read every array of a checkpoint file once; returns (arrays, metadata).

    A missing, truncated or corrupt file, a format version that is not a
    0-d integer array equal to ``FORMAT_VERSION`` and metadata that is not
    a JSON object all raise CheckpointError.
    """
    try:
        # np.load leaves a path it opened itself open when the archive is corrupt
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise CheckpointError(f"{path} is not an npz archive")
            with archive:
                arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "format_version" not in arrays:
        raise CheckpointError(f"{path} is not a checkpoint (no format_version)")
    version = arrays["format_version"]
    if version.ndim != 0 or not np.issubdtype(version.dtype, np.integer):
        raise CheckpointError(
            f"{path} has format version {version!r}, expected the integer {FORMAT_VERSION}")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} has format version {int(version)}, expected {FORMAT_VERSION}")
    try:
        meta = json.loads(str(arrays["meta_json"]))
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path} has no readable metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path} metadata is a JSON {type(meta).__name__}, not an object")
    return arrays, meta


def restore_params(path: str | Path, arrays: dict[str, np.ndarray],
                   params: dict[str, Tensor]) -> None:
    """Write read arrays into ``params`` in place, so a view writes through to its base.

    Nothing is written unless every name and shape matches and every value is
    a finite float64.
    """
    stored = {n[len("param."):] for n in arrays if n.startswith("param.")}
    missing = sorted(set(params) - stored)
    unexpected = sorted(stored - set(params))
    if missing or unexpected:
        raise CheckpointError(
            f"{path} parameter names do not match: missing {missing}, unexpected {unexpected}")
    for name, p in params.items():
        arr = arrays[f"param.{name}"]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {arr.shape}, expected {p.data.shape}")
        if arr.dtype != np.float64:
            raise CheckpointError(f"{path}: parameter {name} has dtype {arr.dtype}, expected float64")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: parameter {name} has non-finite values")
    for name, p in params.items():
        p.data[...] = arrays[f"param.{name}"]
