"""Parameter checkpointing on top of ``np.savez``.

A checkpoint holds a format version, every parameter under ``param.<name>``,
optional auxiliary arrays under ``extra.<name>`` and a JSON metadata string.
Loading restores in place and refuses files whose parameter names or shapes
do not match the nets being restored.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .autodiff import Tensor

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised for unreadable, mismatched, or wrong-version checkpoint files."""


def save_checkpoint(path: str | Path, params: dict[str, Tensor],
                    extra: dict[str, np.ndarray] | None = None,
                    meta: dict | None = None) -> None:
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array(FORMAT_VERSION),
        "meta_json": np.array(json.dumps(meta or {}, sort_keys=True)),
    }
    for name, p in params.items():
        arrays[f"param.{name}"] = p.data
    for name, arr in (extra or {}).items():
        arrays[f"extra.{name}"] = np.asarray(arr)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read every array of a checkpoint file once; returns (arrays, metadata).

    A missing, truncated or corrupt file, a wrong format version and
    unparsable metadata all raise CheckpointError.
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
    version = int(arrays["format_version"])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} has format version {version}, expected {FORMAT_VERSION}")
    try:
        meta = json.loads(str(arrays["meta_json"]))
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path} has no readable metadata: {exc}") from exc
    return arrays, meta


def restore_params(path: str | Path, arrays: dict[str, np.ndarray],
                   params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Restore ``params`` in place from read arrays; returns the extra arrays.

    Nothing is written unless every name and shape matches.
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
    for name, p in params.items():
        p.data = arrays[f"param.{name}"].astype(np.float64)
    return {n[len("extra."):]: a for n, a in arrays.items() if n.startswith("extra.")}


def load_checkpoint(path: str | Path, params: dict[str, Tensor]
                    ) -> tuple[dict[str, np.ndarray], dict]:
    """Restore ``params`` in place; returns (extra arrays, metadata dict)."""
    arrays, meta = read_checkpoint(path)
    return restore_params(path, arrays, params), meta
