"""Structured logging for the repro stack (stdlib ``logging`` only).

One logger hierarchy rooted at ``"repro"``, two interchangeable line
formats: a human ``key=value`` text form and a machine JSON form (one
object per line, ready for ingestion). Extra fields are passed through
``logging``'s ``extra=`` mechanism and surface in both formats::

    from repro.obs.logging import configure_logging, get_logger

    configure_logging(level="info", json_mode=True)
    log = get_logger("service")
    log.info("request served", extra={"fields": {"status": 200, "ms": 1.2}})

Only ``extra={"fields": {...}}`` is treated as structured payload — this
avoids colliding with ``LogRecord``'s reserved attribute names.
"""

from __future__ import annotations

import io
import json
import logging
import sys
import time
from typing import Any, Dict, Mapping, Optional, TextIO

__all__ = [
    "ROOT_LOGGER_NAME",
    "JsonFormatter",
    "KeyValueFormatter",
    "configure_logging",
    "get_logger",
]

ROOT_LOGGER_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}


def _fields_of(record: logging.LogRecord) -> Mapping[str, Any]:
    fields = getattr(record, "fields", None)
    return fields if isinstance(fields, Mapping) else {}


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, msg, structured fields."""

    def format(self, record: logging.LogRecord) -> str:
        """Serialize ``record`` (and its ``fields``) as one JSON line."""
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        payload.update(_fields_of(record))
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=False, default=str)


class KeyValueFormatter(logging.Formatter):
    """Human-oriented: ``HH:MM:SS level logger: msg key=value ...``."""

    def format(self, record: logging.LogRecord) -> str:
        """Render ``record`` as a single human-readable text line."""
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        out = io.StringIO()
        out.write(
            f"{stamp} {record.levelname.lower():<7s} {record.name}: "
            f"{record.getMessage()}"
        )
        for key, value in _fields_of(record).items():
            out.write(f" {key}={value}")
        if record.exc_info:
            out.write("\n" + self.formatException(record.exc_info))
        return out.getvalue()


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted.

    A handler bound to the ``sys.stderr`` object of configuration time
    would keep writing to it after a server or a test swaps it out.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> TextIO:  # type: ignore[override]
        """The current ``sys.stderr``."""
        return sys.stderr


def configure_logging(
    *,
    level: str = "info",
    json_mode: bool = False,
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree; returns the root logger.

    Idempotent: existing repro handlers are replaced, so repeated calls
    (CLI invocations, tests) never stack duplicate handlers. Messages do
    not propagate to the global root logger. Without a ``stream`` the
    handler writes to ``sys.stderr`` as it is at emit time.
    """
    try:
        resolved = _LEVELS[level.lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; one of {sorted(_LEVELS)}"
        ) from None
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    logger.setLevel(resolved)
    logger.propagate = False
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = (
        logging.StreamHandler(stream) if stream is not None else _StderrHandler()
    )
    handler.setFormatter(JsonFormatter() if json_mode else KeyValueFormatter())
    logger.addHandler(handler)
    return logger


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` tree (``get_logger("service.http")``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")
