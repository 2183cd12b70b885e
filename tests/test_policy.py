"""Failure-policy suite: one table decides what follows every failure.

* every fail kind the classifiers can produce — dead-worker exit codes,
  worker failure payloads, the stall watchdog's kind and reply-pipe
  death kinds — has a row in :data:`~repro.runtime.policy.POLICY`, so a
  new kind cannot fall through unhandled;
* the runbook's "What happens after a failure" table documents exactly
  that table;
* :func:`~repro.runtime.policy.cell_failed` walks each row in order.
"""

import os
import re
from types import SimpleNamespace

import pytest

from repro.errors import ResourceExhaustedError
from repro.obs import Recorder, use_recorder
from repro.runtime.faults import FaultPlan
from repro.runtime.policy import (
    FAIL_KINDS,
    POLICY,
    cell_failed,
    classify_exception,
    classify_exitcode,
)
from repro.runtime.retry import RetryPolicy
from repro.runtime.supervisor import (
    EndpointLostError,
    Supervisor,
    _ForkEndpoint,
)

THREE = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)


def _payload_kind(exc):
    try:
        raise exc
    except BaseException as caught:
        return classify_exception(caught)["kind"]


def _watchdog_kinds():
    """Fail kinds a real pool reports when one worker's cell hangs."""
    rec = Recorder.buffering()
    sup = Supervisor(lambda task: task, jobs=2, timeout=0.3, retry=THREE,
                     fault_plan=FaultPlan(hang={0: 1}))
    with use_recorder(rec):
        assert sup.run(["a", "b"]) == ["a", "b"]
    return {r["attrs"]["fail_kind"] for r in rec.drain()
            if r.get("name") == "task.failed"}


def _classified_kinds():
    kinds = {classify_exitcode(code)[0]
             for code in (None, 0, 1, 17, -6, -9, -11, -15, 137, 139)}
    kinds |= {_payload_kind(exc) for exc in (
        ValueError("boom"), MemoryError(),
        ResourceExhaustedError("disk", kind="disk"))}
    kinds |= _watchdog_kinds()
    for alive in (True, False):
        process = SimpleNamespace(is_alive=lambda alive=alive: alive,
                                  exitcode=-9)
        kinds.add(_ForkEndpoint.death(SimpleNamespace(process=process),
                                      EndpointLostError("gone"))[0])
    return kinds


class TestTableCoverage:
    def test_every_classified_kind_has_a_row(self):
        kinds = _classified_kinds()
        assert kinds == set(FAIL_KINDS)
        for scope in ("pool", "serial"):
            assert set(POLICY[scope]) == set(FAIL_KINDS), scope

    def test_runbook_table_matches_policy(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "docs", "runbook.md")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        section = re.search(r"## What happens after a failure\n(.*?)\n## ",
                            text, re.S)
        assert section, "runbook lost its failure-policy section"
        documented = {}
        for scope, kinds, actions in re.findall(
                r"^\| `(\w+)` \| (.+?) \| (.+?) \|$", section.group(1),
                flags=re.M):
            for kind in re.findall(r"`(\w+)`", kinds):
                documented.setdefault(scope, {})[kind] = tuple(
                    re.findall(r"`(\w+)`", actions))
        assert documented == POLICY


def _att(where, kind, attempts):
    return SimpleNamespace(task=("classify", 64, "dubois"),
                           attempts=attempts,
                           history=[{"attempt": attempts, "where": where,
                                     "error": "boom", "kind": kind}])


class TestCellDecisions:
    @pytest.mark.parametrize("kind", ["error", "crash", "exit", "hang",
                                      "oom"])
    def test_pool_retries_then_falls_back_then_aborts(self, kind):
        assert [cell_failed(_att("worker", kind, n), THREE)
                for n in (1, 2, 3)] == ["retry", "retry", "serial"]
        assert cell_failed(_att("serial-fallback", kind, 4),
                           THREE) == "abort"

    def test_group_failure_logs_a_short_label(self, caplog):
        """A failed range task of nine kernel cells logs its kinds,
        blocks, member count and range, not the nine members and plan
        digest; the ``task.failed`` event keeps every member."""
        members = tuple((kind, bb, which, "0123456789abcdef", 1)
                        for kind, which in (("classify-shard", "dubois"),
                                            ("compare-shard", None),
                                            ("protocol-shard", "OTF"))
                        for bb in (4, 64, 1024))
        att = _att("worker", "oom", 1)
        att.task = ("group",) + members
        rec = Recorder.buffering()
        with use_recorder(rec), caplog.at_level("WARNING"):
            assert cell_failed(att, THREE) == "retry"
        (line,) = [r.getMessage() for r in caplog.records]
        assert len(line) < 200, line
        assert ("group of 9 classify-shard/compare-shard/protocol-shard "
                "cells at B=4..1024, range 1") in line
        assert "0123456789abcdef" not in line
        (event,) = [r for r in rec.drain() if r.get("name") == "task.failed"]
        assert event["attrs"]["cell"] == list(att.task)

    def test_serial_retries_then_aborts(self):
        assert [cell_failed(_att("serial", "error", n), THREE)
                for n in (1, 2, 3)] == ["retry", "retry", "abort"]
