"""Live stderr progress line for sweep runs.

The :class:`ProgressLine` is a telemetry *listener*: it subscribes to the
run's :class:`~repro.obs.recorder.Recorder` and folds the task lifecycle
events the supervisor emits (``task.assigned`` / ``task.done`` /
``task.failed``) plus the ``cell.run``/``shard.run`` spans into one
refreshing status line::

    [repro] 12/28 tasks · 4 running · 0 failed · 1.2M ev/s · ETA 34s

* On a TTY the line redraws in place (carriage return + erase), at most
  every ``min_interval`` seconds.
* On a **non-TTY** stream (CI logs, ``2>file``) it prints a full line at
  most every ``non_tty_interval`` seconds plus a final summary, so batch
  logs stay readable while still showing liveness — the CI smoke test
  asserts exactly this mode.

Throughput is a decay-weighted EMA of the per-span events/second, and the
ETA scales the EMA task duration by the remaining task count over the
observed concurrency.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

#: EMA smoothing factor for throughput / duration estimates.
EMA_ALPHA = 0.3


def format_rate(events_per_sec: float) -> str:
    """Human events/s: ``"875k ev/s"``, ``"1.2M ev/s"``."""
    if events_per_sec >= 1e6:
        return f"{events_per_sec / 1e6:.1f}M ev/s"
    if events_per_sec >= 1e3:
        return f"{events_per_sec / 1e3:.0f}k ev/s"
    return f"{events_per_sec:.0f} ev/s"


def format_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressLine:
    """Render task progress to ``stream`` from telemetry records."""

    def __init__(self, stream=None, *, min_interval: float = 0.1,
                 non_tty_interval: float = 5.0, enabled: bool = True):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.non_tty_interval = non_tty_interval
        self.enabled = enabled
        try:
            self.isatty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self.isatty = False
        self.total = 0
        self.done = 0
        self.running = 0
        self.failed_attempts = 0
        self.resumed = 0
        self.interrupting = False
        self.last_heartbeat: Optional[float] = None
        self._ema_rate: Optional[float] = None
        self._ema_dur: Optional[float] = None
        self._max_running = 1
        self._last_render = 0.0
        self._line_open = False
        self._last_text: Optional[str] = None

    # ------------------------------------------------------------------
    # the recorder listener
    # ------------------------------------------------------------------
    def __call__(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "event":
            self._on_event(record)
        elif kind == "span":
            self._on_span(record)
        elif kind == "metric" and record.get("name") == "worker.heartbeat":
            # Liveness only — no redraw per beat, just remember we saw it
            # so the status line can show that workers are alive.
            self.last_heartbeat = time.monotonic()

    def _on_event(self, record: dict) -> None:
        name = record.get("name")
        attrs = record.get("attrs", {})
        if name == "fanout.start":
            # A grid's fan-out announces its task list; the live total
            # is what this grid still has to run plus what is already
            # done (a suite command runs several grids).
            self.total = self.done + int(attrs.get("tasks", 0))
            self.running = 0
        elif name == "task.assigned":
            self.running += 1
            self._max_running = max(self._max_running, self.running)
        elif name == "task.done":
            self.running = max(0, self.running - 1)
            self.done += 1
        elif name == "task.failed":
            self.running = max(0, self.running - 1)
            self.failed_attempts += 1
        elif name == "cell.resumed":
            self.resumed += 1
            return  # resumed cells are not part of the live task count
        elif name == "shutdown.requested":
            self.interrupting = True
            self._render(force=True)
            return
        elif name in ("sweep.finish", "run.finish"):
            self.finish()
            return
        else:
            return
        self._render()

    def _on_span(self, record: dict) -> None:
        if record.get("name") not in ("cell.run", "shard.run"):
            return
        attrs = record.get("attrs", {})
        # A merged cell's shard.run spans already fed the rates.
        if record.get("status") != "ok" or attrs.get("merged"):
            return
        dur = float(record.get("dur_s", 0.0))
        rows = attrs.get("rows")
        if dur > 0:
            self._ema_dur = (dur if self._ema_dur is None
                             else EMA_ALPHA * dur
                             + (1 - EMA_ALPHA) * self._ema_dur)
            if rows:
                rate = float(rows) / dur
                self._ema_rate = (rate if self._ema_rate is None
                                  else EMA_ALPHA * rate
                                  + (1 - EMA_ALPHA) * self._ema_rate)
        self._render()

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def eta_seconds(self) -> Optional[float]:
        remaining = self.total - self.done
        if remaining <= 0 or self._ema_dur is None:
            return None
        return remaining * self._ema_dur / max(1, self._max_running)

    def status(self) -> str:
        parts = [f"{self.done}/{self.total} tasks",
                 f"{self.running} running",
                 f"{self.failed_attempts} failed"]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.interrupting:
            parts.append("interrupting -- draining")
        if self._ema_rate is not None:
            parts.append(format_rate(self._ema_rate))
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"ETA {format_eta(eta)}")
        return "[repro] " + " · ".join(parts)

    def _render(self, *, force: bool = False) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        interval = (self.min_interval if self.isatty
                    else self.non_tty_interval)
        if not force and now - self._last_render < interval:
            return
        self._last_render = now
        text = self.status()
        try:
            if self.isatty:
                self.stream.write("\r\x1b[K" + text)
                self._line_open = True
            else:
                # Batch logs: never repeat an unchanged status line
                # (tasks-complete, sweep.finish and run.finish can all
                # render the same totals back to back).
                if text == self._last_text:
                    return
                self.stream.write(text + "\n")
            self._last_text = text
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            self.enabled = False

    def finish(self) -> None:
        """Print the final summary line (even on non-TTY, once)."""
        if not self.enabled:
            return
        text = self.status()
        try:
            if self.isatty and self._line_open:
                self.stream.write("\r\x1b[K")
            elif not self.isatty and text == self._last_text:
                return
            self.stream.write(text + "\n")
            self._last_text = text
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass
        self._line_open = False
