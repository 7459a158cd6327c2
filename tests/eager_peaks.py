"""The eager reference for the peaks of a kernel call.

``kernels.integrate_segment`` queues the crests (extrema) inside its
steps, each with its step's mode record (``modes.Mode``) to build its
Taylor terms from, and returns the peaks of its step ends;
``sim.PeriodPeaks`` locates the queued crests only where a read needs
them.  The reference locates every crest a call queues at the call's end,
through a ``PeriodPeaks`` of the call alone, so its peaks are the call's
own.
"""

from llckit import kernels, sim

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
    counter = [0, 0]
    peaks = sim.PeriodPeaks(0.0, counter)
    peaks.ends = list(out[9:13])
    peaks.crests = crests[n0:]
    del crests[n0:]
    err = out[0]
    got = out[9:13]
    try:
        got = peaks.exact()
    except sim.EventLocalizationFailure:
        err = kernels.ERR_EVENT_LOC
    return (err,) + out[1:9] + got + out[13:] + (counter[1], counter[0])
