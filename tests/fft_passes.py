"""A log of ``numpy.fft`` calls, folded into the 2-D transforms they make.

The package makes every 2-D transform as two explicit 1-D passes.  An
inverse is a complex y-pass (``ifft`` on axis 0) over leading half-spectrum
columns, then the real x-pass ``irfft`` on axis 1; a forward transform is
``rfft`` on axis 1, then ``fft`` on axis 0.  :func:`transforms` turns a log
into one ``"inverse"`` or ``"forward"`` per 2-D transform and fails on any
other call pattern, so a silent fallback to full complex transforms shows up.
"""

import numpy as np

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


class Call:
    """One ``numpy.fft`` call: its name, the shape and kind of its input, its axis."""

    def __init__(self, name, a, kwargs):
        self.name = name
        self.shape = np.shape(a)
        self.complex = np.iscomplexobj(a)
        self.axis = kwargs.get("axis", -1) % len(self.shape) if self.shape else None

    def __repr__(self):
        kind = "complex" if self.complex else "real"
        return f"{self.name}({kind} {self.shape}, axis={self.axis})"


def install(monkeypatch) -> list:
    """Wrap every ``numpy.fft`` function; return the list each call is appended to."""
    calls = []

    def logged(name, fn):
        def call(a, *args, **kwargs):
            calls.append(Call(name, a, kwargs))
            return fn(a, *args, **kwargs)
        return call

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, logged(name, getattr(np.fft, name)))
    return calls


def transforms(calls, grid) -> list:
    """``"inverse"`` or ``"forward"`` for each 2-D transform the calls make, in order.

    Asserts the pass rules on the way: every y-pass reads at most
    ``n_x//2 + 1`` columns and is paired with its real x-pass, no complex
    pass reads a full ``(n_y, n_x)`` array, and no 2-D or n-D transform is
    called.
    """
    half = grid.n_x // 2 + 1
    out, i = [], 0
    while i < len(calls):
        call = calls[i]
        assert not (call.complex and call.shape == grid.shape and call.name in ("fft", "ifft")), \
            f"a 1-D pass over a full complex array: {call}"
        pair = calls[i:i + 2]
        names = [c.name for c in pair]
        if names == ["ifft", "irfft"]:
            y_pass, x_pass = pair
            assert x_pass.shape == (grid.n_y, half), f"the x-pass reads {x_pass}"
            out.append("inverse")
        elif names == ["rfft", "fft"]:
            x_pass, y_pass = pair
            assert x_pass.shape == grid.shape and not x_pass.complex, f"the x-pass reads {x_pass}"
            out.append("forward")
        else:
            raise AssertionError(f"not a 2-D real transform: {pair}")
        assert (y_pass.axis, x_pass.axis) == (0, 1), pair
        assert y_pass.shape[0] == grid.n_y and y_pass.shape[1] <= half, \
            f"the y-pass reads {y_pass}"
        i += 2
    return out
