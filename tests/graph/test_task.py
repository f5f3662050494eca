"""Unit tests for the Task record."""

import dataclasses
import pickle

import pytest

from repro.graph import Task
from repro.speedup import AmdahlModel


class TestTask:
    def test_delegation(self):
        model = AmdahlModel(8.0, 2.0)
        task = Task("t", model)
        assert task.time(4) == pytest.approx(model.time(4))
        assert task.area(4) == pytest.approx(model.area(4))

    def test_frozen(self):
        task = Task("t", AmdahlModel(1.0, 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.id = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.tag = "other"

    def test_slots_leave_no_instance_dict(self):
        task = Task("t", AmdahlModel(1.0, 1.0))
        assert not hasattr(task, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            task.extra = 1

    def test_tag_not_compared(self):
        m = AmdahlModel(1.0, 1.0)
        assert Task("t", m, tag="x") == Task("t", m, tag="y")
        assert hash(Task("t", m, tag="x")) == hash(Task("t", m, tag="y"))
        assert Task("t", m) != Task("u", m)

    def test_pickle_round_trip(self):
        task = Task("t", AmdahlModel(8.0, 2.0), tag="GEMM")
        back = pickle.loads(pickle.dumps(task))
        assert back == task and back.tag == "GEMM"
        assert back.time(4) == task.time(4)

    def test_replace(self):
        task = Task("t", AmdahlModel(8.0, 2.0), tag="GEMM")
        moved = dataclasses.replace(task, id="u")
        assert (moved.id, moved.model, moved.tag) == ("u", task.model, "GEMM")
        assert task.id == "t"

    def test_default_tag_empty(self):
        assert Task("t", AmdahlModel(1.0, 1.0)).tag == ""
