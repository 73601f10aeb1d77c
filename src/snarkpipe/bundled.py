"""Access to the example programs and problems shipped inside the package."""

from __future__ import annotations

from importlib import resources

__all__ = ["bundled_names", "load_bundled_text", "read_text", "resolve_source"]


def _data_dir():
    return resources.files(__package__).joinpath("data")


def bundled_names() -> list:
    return sorted(entry.name for entry in _data_dir().iterdir() if entry.is_file())


def load_bundled_text(name: str) -> str:
    entry = _data_dir().joinpath(name)
    if not entry.is_file():
        raise FileNotFoundError(f"no bundled file named {name!r}")
    return entry.read_text()


def read_text(path: str) -> str:
    """The UTF-8 text of a file on disk; any other encoding is refused by
    naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def resolve_source(path_or_name: str, suffix: str) -> str:
    """Read a file from disk, falling back to the bundled copy of that name."""
    import os

    if os.path.exists(path_or_name):
        return read_text(path_or_name)
    candidate = os.path.basename(path_or_name)
    if not candidate.endswith(suffix):
        candidate += suffix
    try:
        return load_bundled_text(candidate)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"{path_or_name!r} is neither a file nor a bundled name"
            f" (bundled: {', '.join(bundled_names())})"
        ) from None
