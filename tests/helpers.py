"""Hypothesis strategies and kernel probes shared by the test modules."""

from hypothesis import strategies as st

from adlab import GroundSet, IntegerLattice, Residues, groundset, growth


AMBIENT_KINDS = ("line", "mod", "z2", "z3")


@st.composite
def ambient_sets(draw, kind, count, max_size):
    """``count`` nonempty sets in one ambient of the kind, and its modulus."""
    if kind == "line":
        amb, elem, modulus = IntegerLattice(1), st.integers(-12, 12), None
    elif kind == "mod":
        modulus = draw(st.integers(2, 13))
        amb, elem = Residues(modulus), st.integers(0, modulus - 1)
    else:
        rank = int(kind[1])
        amb, elem, modulus = IntegerLattice(rank), st.tuples(*[st.integers(-3, 3)] * rank), None
    sets = [
        GroundSet.of(amb, draw(st.lists(elem, min_size=1, max_size=max_size)))
        for _ in range(count)
    ]
    return sets, modulus


def record_sum_kernels(monkeypatch):
    """The form of each ``_sum_codes`` step's result, in order: bitset, sorted or set.

    Records the steps of ``sumset`` and ``growth_sequence``; a step that
    raises records nothing.
    """
    ran = []
    sum_codes = groundset._sum_codes

    def recording(xs, base, ys, modulus, size_cap):
        state, out_base, count = sum_codes(xs, base, ys, modulus, size_cap)
        if out_base is not None:
            ran.append("bitset")
        else:
            ran.append("set" if isinstance(state, set) else "sorted")
        return state, out_base, count

    monkeypatch.setattr(groundset, "_sum_codes", recording)
    monkeypatch.setattr(growth, "_sum_codes", recording)
    return ran
