"""Pinned service behaviour: schedules, notifications and state digests.

Each scenario drives a :class:`ServiceCore` through one sequence of
mutations and records, per tenant, every task's ``(start, end, procs,
attempt)``, the ordered notifications the mutations returned, and the
final :meth:`ServiceCore.state_digest`, plus a hash of the digests
after every mutation (the trail, which sees transient state such as the
stale heap events of killed attempts).  The constants below were
captured from the pool before it was rebuilt on the engine's slot loop;
any drift in scheduling, retry timing, notification order or state
layout shows up here.
"""

from __future__ import annotations

import hashlib
from typing import Any

import pytest

from repro.graph.generators import erdos_renyi_dag
from repro.service.config import ServiceConfig
from repro.service.core import ServiceCore
from repro.service.protocol import Hello, Submit
from repro.speedup import AmdahlModel
from repro.speedup.random import RandomModelFactory


class Recorder:
    """A core plus the notifications its mutations returned, in order."""

    def __init__(self, config: ServiceConfig) -> None:
        self.core = ServiceCore(config)
        self.notes: list[tuple[str, dict[str, Any]]] = []
        self.trail = hashlib.sha256()

    def step(self, notes: list[Any]) -> None:
        self.notes.extend(notes)
        self.trail.update(self.core.state_digest().encode())

    def hello(self, tenant: str, **kwargs: Any) -> None:
        self.core.hello(Hello(tenant=tenant, **kwargs))
        self.step([])

    def submit(
        self, tenant: str, task: str, model: AmdahlModel, deps: tuple[str, ...] = ()
    ) -> None:
        self.step(self.core.submit(tenant, Submit(task=task, model=model, deps=deps))[1])

    def close(self, tenant: str) -> None:
        self.step(self.core.close(tenant)[1])

    def cancel(self, tenant: str) -> None:
        self.core.cancel(tenant)
        self.step([])

    def fault(self, kind: str, proc: int) -> None:
        self.step(self.core.fault(kind, proc))

    def tick(self, budget: int = 64) -> None:
        self.step(self.core.tick(budget))

    def drain(self) -> None:
        while self.core.pool.has_pending_events():
            self.tick()

    def proc_of(self, tenant: str, task: str) -> int:
        return self.core.pool.tenants[tenant].tasks[task].proc_ids[0]

    def outcome(self) -> tuple[dict[str, Any], list[Any], str, str]:
        tasks = {
            tenant: {
                tid: (t.start, t.end, t.procs, t.attempt) for tid, t in sorted(run.tasks.items())
            }
            for tenant, run in sorted(self.core.pool.tenants.items())
        }
        notes = [(tenant, sorted(payload.items())) for tenant, payload in self.notes]
        return tasks, notes, self.core.state_digest(), self.trail.hexdigest()


def submit_graph(rec: Recorder, tenant: str, graph: Any) -> None:
    for task_id in graph.task_map():
        rec.submit(
            tenant,
            str(task_id),
            graph.task(task_id).model,
            tuple(str(p) for p in graph.predecessors(task_id)),
        )


def one_tenant() -> Recorder:
    rec = Recorder(ServiceConfig(P=8, family="amdahl"))
    graph = erdos_renyi_dag(8, RandomModelFactory("amdahl", seed=5), edge_probability=0.3, seed=2)
    rec.hello("t")
    submit_graph(rec, "t", graph)
    rec.close("t")
    rec.drain()
    return rec


def fair_share() -> Recorder:
    rec = Recorder(ServiceConfig(P=4, family="amdahl"))
    for index, tenant in enumerate(("a", "b", "c")):
        rec.hello(tenant)
        rec.submit(tenant, "x", AmdahlModel(6.0 + index, 1.0))
        rec.submit(tenant, "y", AmdahlModel(3.0, 0.5))
        rec.submit(tenant, "z", AmdahlModel(4.0 + index, 1.0), ("x",))
    rec.tick(2)
    for tenant in ("a", "b", "c"):
        rec.close(tenant)
    rec.drain()
    return rec


def quota_blocked() -> Recorder:
    rec = Recorder(ServiceConfig(P=8, family="amdahl"))
    rec.hello("small", max_running_procs=2)
    rec.hello("big")
    for i in range(3):
        rec.submit("small", f"s{i}", AmdahlModel(20.0, 1.0))
    rec.submit("big", "b0", AmdahlModel(30.0, 1.0))
    rec.submit("big", "b1", AmdahlModel(5.0, 1.0), ("b0",))
    rec.close("small")
    rec.close("big")
    rec.drain()
    return rec


def faults_outage() -> Recorder:
    rec = Recorder(ServiceConfig(P=4, family="amdahl", fault_backoff=0.5, fault_max_attempts=6))
    rec.hello("t")
    rec.submit("t", "a", AmdahlModel(8.0, 1.0))
    rec.submit("t", "b", AmdahlModel(5.0, 1.0))
    rec.submit("t", "c", AmdahlModel(3.0, 1.0), ("a",))
    rec.submit("t", "d", AmdahlModel(2.0, 1.0), ("b",))
    rec.close("t")
    rec.fault("fail", rec.proc_of("t", "a"))  # kills a; retry backs off 0.5
    rec.tick(3)
    for proc in range(4):  # full outage with work running and queued
        if proc not in rec.core.pool.down:
            rec.fault("fail", proc)
    rec.tick(2)
    for proc in (2, 0, 3, 1):
        rec.fault("recover", proc)
    rec.drain()
    return rec


def cancel_readmit() -> Recorder:
    rec = Recorder(ServiceConfig(P=8, family="amdahl", fault_backoff=1.0))
    rec.hello("u")
    rec.submit("u", "x", AmdahlModel(0.2, 0.2))
    rec.hello("t")
    rec.submit("t", "a", AmdahlModel(8.0, 1.0))
    rec.submit("t", "b", AmdahlModel(4.0, 1.0))
    proc = rec.proc_of("t", "a")
    rec.fault("fail", proc)
    rec.fault("recover", proc)
    rec.cancel("t")
    rec.tick(1)
    rec.hello("t")  # the same ids again: the first session's events are stale
    rec.submit("t", "a", AmdahlModel(8.0, 1.0))
    rec.submit("t", "b", AmdahlModel(4.0, 1.0), ("a",))
    proc = rec.proc_of("t", "a")
    rec.fault("fail", proc)
    rec.fault("recover", proc)
    rec.close("t")
    rec.close("u")
    rec.drain()
    return rec


def deadline() -> Recorder:
    rec = Recorder(ServiceConfig(P=4, family="amdahl"))
    rec.hello("late", deadline=3.0)
    rec.hello("ok")
    rec.submit("late", "a", AmdahlModel(4.0, 1.0))
    rec.submit("late", "b", AmdahlModel(4.0, 1.0), ("a",))
    rec.submit("ok", "c", AmdahlModel(6.0, 1.0))
    rec.close("late")
    rec.close("ok")
    rec.drain()
    return rec


def retry_exhausted() -> Recorder:
    rec = Recorder(ServiceConfig(P=2, family="amdahl", fault_max_attempts=2, fault_backoff=0.25))
    rec.hello("t")
    rec.submit("t", "a", AmdahlModel(6.0, 1.0))
    rec.submit("t", "b", AmdahlModel(3.0, 1.0), ("a",))
    rec.close("t")
    rec.fault("fail", rec.proc_of("t", "a"))
    rec.tick(1)  # the retry comes due and restarts
    rec.fault("fail", rec.proc_of("t", "a"))  # attempt 2 dies: budget spent
    rec.fault("recover", 0)
    rec.fault("recover", 1)
    rec.drain()
    return rec


SCENARIOS = {
    "one_tenant": one_tenant,
    "fair_share": fair_share,
    "quota_blocked": quota_blocked,
    "faults_outage": faults_outage,
    "cancel_readmit": cancel_readmit,
    "deadline": deadline,
    "retry_exhausted": retry_exhausted,
}

PINS: dict[str, tuple[Any, Any, str, str]] = {
    'one_tenant':
    ({'t': {'0': (0.0, 25.310353882553088, 2, 1),
            '1': (25.310353882553088, 29.50595574498046, 3, 1),
            '2': (0.0, 0.5261238782675111, 3, 1),
            '3': (29.50595574498046, 31.756419385445263, 3, 1),
            '4': (31.756419385445263, 32.569898625610875, 2, 1),
            '5': (31.756419385445263, 39.43663178291921, 3, 1),
            '6': (31.756419385445263, 36.54517080387023, 2, 1),
            '7': (39.43663178291921, 78.55886169201496, 2, 1)}},
     [('t',
       [('end', 0.5261238782675111),
        ('event', 'task-done'),
        ('procs', 3),
        ('start', 0.0),
        ('task', '2')]),
      ('t',
       [('end', 25.310353882553088),
        ('event', 'task-done'),
        ('procs', 2),
        ('start', 0.0),
        ('task', '0')]),
      ('t',
       [('end', 29.50595574498046),
        ('event', 'task-done'),
        ('procs', 3),
        ('start', 25.310353882553088),
        ('task', '1')]),
      ('t',
       [('end', 31.756419385445263),
        ('event', 'task-done'),
        ('procs', 3),
        ('start', 29.50595574498046),
        ('task', '3')]),
      ('t',
       [('end', 32.569898625610875),
        ('event', 'task-done'),
        ('procs', 2),
        ('start', 31.756419385445263),
        ('task', '4')]),
      ('t',
       [('end', 36.54517080387023),
        ('event', 'task-done'),
        ('procs', 2),
        ('start', 31.756419385445263),
        ('task', '6')]),
      ('t',
       [('end', 39.43663178291921),
        ('event', 'task-done'),
        ('procs', 3),
        ('start', 31.756419385445263),
        ('task', '5')]),
      ('t',
       [('end', 78.55886169201496),
        ('event', 'task-done'),
        ('procs', 2),
        ('start', 39.43663178291921),
        ('task', '7')]),
      ('t', [('event', 'graph-done'), ('makespan', 78.55886169201496), ('tasks', 8)])],
     'dc78e2fa8e27285242ccb2d34c865679a921a79384e2abc8b5e7b8481267041d',
     '9ad786285c26f1f69de4452051ea3304a207011260a6467e4192386c6dac71ea'),
    'fair_share':
    ({'a': {'x': (0.0, 4.0, 2, 1), 'y': (0.0, 2.0, 2, 1), 'z': (8.5, 11.5, 2, 1)},
      'b': {'x': (2.0, 6.5, 2, 1), 'y': (6.5, 8.5, 2, 1), 'z': (11.0, 14.5, 2, 1)},
      'c': {'x': (4.0, 9.0, 2, 1), 'y': (9.0, 11.0, 2, 1), 'z': (11.5, 15.5, 2, 1)}},
     [('a',
       [('end', 2.0), ('event', 'task-done'), ('procs', 2), ('start', 0.0), ('task', 'y')]),
      ('a',
       [('end', 4.0), ('event', 'task-done'), ('procs', 2), ('start', 0.0), ('task', 'x')]),
      ('b',
       [('end', 6.5), ('event', 'task-done'), ('procs', 2), ('start', 2.0), ('task', 'x')]),
      ('b',
       [('end', 8.5), ('event', 'task-done'), ('procs', 2), ('start', 6.5), ('task', 'y')]),
      ('c',
       [('end', 9.0), ('event', 'task-done'), ('procs', 2), ('start', 4.0), ('task', 'x')]),
      ('c',
       [('end', 11.0), ('event', 'task-done'), ('procs', 2), ('start', 9.0), ('task', 'y')]),
      ('a',
       [('end', 11.5), ('event', 'task-done'), ('procs', 2), ('start', 8.5), ('task', 'z')]),
      ('a', [('event', 'graph-done'), ('makespan', 11.5), ('tasks', 3)]),
      ('b',
       [('end', 14.5), ('event', 'task-done'), ('procs', 2), ('start', 11.0), ('task', 'z')]),
      ('b', [('event', 'graph-done'), ('makespan', 14.5), ('tasks', 3)]),
      ('c',
       [('end', 15.5), ('event', 'task-done'), ('procs', 2), ('start', 11.5), ('task', 'z')]),
      ('c', [('event', 'graph-done'), ('makespan', 15.5), ('tasks', 3)])],
     '9c4d8393d732503fac392542ccef8f673f13e9c4774ad37d18a7c683b84644ba',
     '9d611c36d592a4937693db614af34ac8311453a1a3a040430ed2d70b997c2437'),
    'quota_blocked':
    ({'big': {'b0': (0.0, 11.0, 3, 1), 'b1': (11.0, 14.5, 2, 1)},
      'small': {'s0': (0.0, 21.0, 1, 1), 's1': (0.0, 21.0, 1, 1), 's2': (21.0, 42.0, 1, 1)}},
     [('big',
       [('end', 11.0), ('event', 'task-done'), ('procs', 3), ('start', 0.0), ('task', 'b0')]),
      ('big',
       [('end', 14.5), ('event', 'task-done'), ('procs', 2), ('start', 11.0), ('task', 'b1')]),
      ('big', [('event', 'graph-done'), ('makespan', 14.5), ('tasks', 2)]),
      ('small',
       [('end', 21.0), ('event', 'task-done'), ('procs', 1), ('start', 0.0), ('task', 's0')]),
      ('small',
       [('end', 21.0), ('event', 'task-done'), ('procs', 1), ('start', 0.0), ('task', 's1')]),
      ('small',
       [('end', 42.0), ('event', 'task-done'), ('procs', 1), ('start', 21.0), ('task', 's2')]),
      ('small', [('event', 'graph-done'), ('makespan', 42.0), ('tasks', 3)])],
     '6a0896e0ea58f867d4d61e3811d16effa65b530a347ff50a61a9010e95c55ebb',
     '7140ba1452d08cee87db37f5863cd5a7dc410d8b69e9ad01eaca87573bc721b9'),
    'faults_outage':
    ({'t': {'a': (6.0, 15.0, 1, 3),
            'b': (0.0, 3.5, 2, 1),
            'c': (15.0, 19.0, 1, 1),
            'd': (6.0, 9.0, 1, 2)}},
     [('t', [('attempt', 1), ('event', 'task-killed'), ('task', 'a')]),
      ('t',
       [('end', 3.5), ('event', 'task-done'), ('procs', 2), ('start', 0.0), ('task', 'b')]),
      ('t', [('attempt', 2), ('event', 'task-killed'), ('task', 'a')]),
      ('t', [('attempt', 1), ('event', 'task-killed'), ('task', 'd')]),
      ('t',
       [('end', 9.0), ('event', 'task-done'), ('procs', 1), ('start', 6.0), ('task', 'd')]),
      ('t',
       [('end', 15.0), ('event', 'task-done'), ('procs', 1), ('start', 6.0), ('task', 'a')]),
      ('t',
       [('end', 19.0), ('event', 'task-done'), ('procs', 1), ('start', 15.0), ('task', 'c')]),
      ('t', [('event', 'graph-done'), ('makespan', 19.0), ('tasks', 4)])],
     'b226d017d05a6154ad85713eaec295edf3b5360649ec95a9277cec2a15915979',
     '3ca44ccc3a72dfa8af0cdd9b0081c8d9143a6f2281476970e9d9be16459ff6f6'),
    'cancel_readmit':
    ({'t': {'a': (1.4, 5.066666666666666, 3, 2),
            'b': (5.066666666666666, 8.066666666666666, 2, 1)},
      'u': {'x': (0.0, 0.4, 1, 1)}},
     [('t', [('attempt', 1), ('event', 'task-killed'), ('task', 'a')]),
      ('u',
       [('end', 0.4), ('event', 'task-done'), ('procs', 1), ('start', 0.0), ('task', 'x')]),
      ('t', [('attempt', 1), ('event', 'task-killed'), ('task', 'a')]),
      ('u', [('event', 'graph-done'), ('makespan', 0.4), ('tasks', 1)]),
      ('t',
       [('end', 5.066666666666666),
        ('event', 'task-done'),
        ('procs', 3),
        ('start', 1.4),
        ('task', 'a')]),
      ('t',
       [('end', 8.066666666666666),
        ('event', 'task-done'),
        ('procs', 2),
        ('start', 5.066666666666666),
        ('task', 'b')]),
      ('t', [('event', 'graph-done'), ('makespan', 7.666666666666666), ('tasks', 2)])],
     '308c4762694c739b7cb5ab83845d70aaabfdd558f4b376eea7cd5554ae758e65',
     '3d6a79bc90bb70d953d5376a062ae14059f7b144c401fe3c7540a25aed6e9019'),
    'deadline':
    ({'late': {'a': (0.0, 3.0, 2, 1), 'b': (3.0, 6.0, 2, 1)}, 'ok': {'c': (0.0, 4.0, 2, 1)}},
     [('late',
       [('end', 3.0), ('event', 'task-done'), ('procs', 2), ('start', 0.0), ('task', 'a')]),
      ('late',
       [('event', 'evicted'),
        ('message', 'session deadline 3 overran at t=3'),
        ('reason', 'DEADLINE_EXCEEDED')]),
      ('ok',
       [('end', 4.0), ('event', 'task-done'), ('procs', 2), ('start', 0.0), ('task', 'c')]),
      ('ok', [('event', 'graph-done'), ('makespan', 4.0), ('tasks', 1)])],
     'd90c157c1b37022288affd9840ef8fb844a72b2c28906c0ba316fc897f652830',
     '10fff9e7887d783c3209b8d4bb879f3a071628d5eb2d523c9e1bb3877a61d13f'),
    'retry_exhausted':
    ({'t': {'a': (0.25, 7.25, 0, 2), 'b': (-1.0, -1.0, 0, 1)}},
     [('t', [('attempt', 1), ('event', 'task-killed'), ('task', 'a')]),
      ('t', [('attempt', 2), ('event', 'task-killed'), ('task', 'a')]),
      ('t',
       [('event', 'evicted'),
        ('message', "task 'a' killed 2 times (fault_max_attempts=2)"),
        ('reason', 'RETRY_EXHAUSTED')])],
     '18fbe3f9a4690ce1e9371a5c1e5b610e32db75810658f94b15e6ca238d615e14',
     '0886ba1c5fc83817c5ce76ba61562cba76686474d1c9db7f3fbadfb0c73d7345'),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_pins(name):
    tasks, _, _, _ = SCENARIOS[name]().outcome()
    assert tasks == PINS[name][0]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_notification_pins(name):
    _, notes, _, _ = SCENARIOS[name]().outcome()
    assert notes == PINS[name][1]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_state_digest_pins(name):
    _, _, digest, _ = SCENARIOS[name]().outcome()
    assert digest == PINS[name][2]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_state_trail_pins(name):
    _, _, _, trail = SCENARIOS[name]().outcome()
    assert trail == PINS[name][3]
