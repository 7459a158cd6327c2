"""The eager reference for the peaks of a kernel call.

``kernels.integrate_segment`` queues the crests (extrema) inside its
steps and returns the peaks of its step ends; ``sim.PeriodPeaks`` locates
the queued crests only where a read needs them.  The reference locates
every crest a call queues at the call's end, with ``kernels._crest_peaks``,
so its peaks are the call's own.
"""

from llckit import kernels

# the kernel itself, for tests that patch its name in ``kernels`` with
# ``eager_segment``
_segment = kernels.integrate_segment


def eager_segment(*args):
    """``kernels.integrate_segment(*args)`` with the crests it appends to
    its crests list (argument 22) located at its end and taken off the list
    again.  Returns the kernel's 19 values, its peaks raised by the crests
    (err ``ERR_EVENT_LOC`` where a search fails), then the root-search
    iterations spent on the crests and the number located."""
    crests = args[22]
    n0 = len(crests)
    out = _segment(*args)
    # the Taylor terms of the steps queued without them, and the rates
    # where an event ended a step
    queue = [(w or kernels._series(*x, *m[7:10], h, m), s, ra,
              rb or kernels._rates(w, s, h))
             for w, s, ra, rb, x, h, m in crests[n0:]]
    del crests[n0:]
    err = out[0]
    peaks = out[9:13]
    iters = located = 0
    if queue:
        got, located, iters = kernels._crest_peaks(queue, peaks)
        if got is None:
            err = kernels.ERR_EVENT_LOC
        else:
            peaks = tuple(got)
    return (err,) + out[1:9] + peaks + out[13:] + (iters, located)
