"""Error types shared across the toolkit, and the one reader of input files."""

from __future__ import annotations

from pathlib import Path


class InputError(ValueError):
    """Malformed or inconsistent user input (bad cycle notation, degree mismatch, ...)."""


class ResourceLimitError(RuntimeError):
    """A configured size cap would be exceeded.

    Refusals are never silent: the message names the cap, the requested
    size, and the flag that raises it.
    """

    def __init__(self, cap_name: str, cap_value: int, requested: int, flag: str):
        self.cap_name = cap_name
        self.cap_value = cap_value
        self.requested = requested
        self.flag = flag
        super().__init__(
            f"{cap_name} cap exceeded: requested {requested}, cap {cap_value} "
            f"(raise with {flag})"
        )


def read_input_file(path: str, what: str) -> str:
    """UTF-8 text of a user-named file; an unreadable file is one InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{what}: cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{what}: {path} is not UTF-8 text") from exc
