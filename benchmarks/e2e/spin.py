"""Keep one CPU from going idle, at the lowest priority there is.

``spin.py <cpu>`` is started once per allowed CPU by
``procs.steady_cpus()`` for the length of a run.  On this VM an idle
vCPU halts, and waking a halted vCPU goes through the hypervisor: that
cost 0.1-0.6 ms per wake-up, in episodes of minutes, and a 0.5 ms HTTP
insert is made of four wake-ups (README.md, *Steadiness*).  A CPU that
always has something to run never halts.

The loop takes nothing from the measured processes: it runs under
``SCHED_IDLE`` (any waking task preempts it at once) in a session of
its own whose autogroup is niced to 19 (children run in sessions of
their own; between autogroups the kernel shares a CPU by group weight,
whatever the policy of the tasks inside).  It ends when its parent
does, however the parent ended.
"""

import os
import sys


def main() -> None:
    parent = os.getppid()
    os.sched_setaffinity(0, {int(sys.argv[1])})
    try:
        with open("/proc/self/autogroup", "w") as fh:
            fh.write("19")
    except OSError:
        pass  # no autogroups on this kernel: the policy below is enough
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)
    while os.getppid() == parent:
        for _ in range(200_000):
            pass


if __name__ == "__main__":
    main()
