"""Test helper: rebuild the point after every step of a construction trace."""

from fractions import Fraction

from fsdim.constructor import sigma_element_at


def replay_trace(trace) -> list[Fraction]:
    """The point after each step, folded from Fraction(0) by sigma_element_at.

    Asserts that every point is the final xi truncated after b_m - 2
    base-u digits (the run's stability audit, checked from outside),
    that the points never decrease, and that the last one is trace.xi.
    """
    points = []
    point = Fraction(0)
    for step in trace.steps:
        after = sigma_element_at(point, step.u, step.a_m, step.b_m, step.digit_block)
        scale = step.u ** (step.b_m - 2)
        truncated = Fraction(trace.xi.numerator * scale // trace.xi.denominator, scale)
        assert after == truncated, f"step {step.m} is not a truncation of xi"
        assert after >= point, f"step {step.m} moved the point backwards"
        point = after
        points.append(point)
    assert point == trace.xi
    return points
