"""The scheduler port: the interface the event kernel drives, and the
decision record it passes through it.

Every scheduler, learned or not, subclasses ``SchedulerPort``. When an
event makes tasks of an application ready, the kernel hands that list of
the graph's own ``Task``s, in ascending order of the graph's ``lct``
column, to ``order_ready``, which may reorder it in place. For each task in
turn it hands ``decide`` a ``DecisionContext``, which names the task by its
app and task ids; after the commit it reports the decision's reward to
``notify_outcome``. Once every application has completed, ``end_episode``
receives the system state. The context is a plain slotted class, built
once per decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .mdp_agent import StateVector
    from .task_graph import Task, TaskGraph

__all__ = ["DecisionContext", "SchedulerPort"]


class DecisionContext:
    """Everything a scheduler may consult for one decision.

    ``finish_if`` maps a candidate device to the task's finish time there,
    and ``observation`` is the system state at the decision instant
    (``sim_engine.observe_state``). It comes from the ``observe`` callable,
    called on the first read and cached, so schedulers that never read it
    never pay for it. Both answer only while the decision is being made:
    once ``close`` has run, ``observation`` returns the value already read
    or raises, and ``finish_if`` raises.
    """

    __slots__ = ("now", "app_id", "task_id", "valid_actions",
                 "finish_if", "_observation", "_observe")

    def __init__(
        self,
        now: float,
        app_id: int,
        task_id: int,
        valid_actions: tuple[int, ...],
        finish_if: Callable[[int], float],  # candidate device -> finish time
        observe: Callable[[], StateVector],
    ) -> None:
        self.now = now
        self.app_id = app_id
        self.task_id = task_id
        self.valid_actions = valid_actions
        self.finish_if = finish_if
        self._observation = None
        self._observe = observe

    @property
    def observation(self) -> StateVector:
        obs = self._observation
        if obs is None:
            if self._observe is None:
                raise RuntimeError(
                    "the observation can be read only while the decision is made")
            obs = self._observation = self._observe()
        return obs

    def close(self) -> None:
        """End the decision: an observation not read by now is never
        computed, and ``finish_if`` no longer answers (the kernel's plans
        move on to the next task)."""
        self._observe = None
        self.finish_if = _closed_finish_if


def _closed_finish_if(m: int) -> float:
    raise RuntimeError("finish_if can be called only while the decision is made")


class SchedulerPort:
    """Interface the kernel drives; subclasses override what they need."""

    def decide(self, ctx: DecisionContext) -> int:
        raise NotImplementedError

    def notify_outcome(self, reward: float) -> None:
        """Receive the reward of the decision just committed."""

    def order_ready(self, graph: TaskGraph, ready: list[Task]) -> None:
        """Reorder, in place, the ready tasks of ``graph`` that the kernel
        is about to place, in ascending LCT order; by default it keeps
        that order."""

    def end_episode(self, observation: StateVector) -> None:
        """Receive the system state once every application has completed."""
