"""Spans around the calls from one schurcx module into another.

The tracer replaces a module or class attribute with a wrapper, so callers
that look the name up at call time go through it.  Spans nest on a stack;
each span's duration and self time (duration minus the time its child spans
cover) are summed per span name in memory and handed over when the round
ends.  A name that no longer exists is recorded as missing, with its span.
"""

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.missing = []
        self._stack = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Route owner.attr through a span called name.

        before(args) runs ahead of the span and after(result) behind it, so
        counting done there is not charged to the span.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(("%s.%s" % (owner.__name__, attr), name))
            return
        stack, total, self_time, calls = self._stack, self.total, self.self_time, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                total[name] += duration
                self_time[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)
