import pytest

from tvbcox import cox


@pytest.fixture
def saturated_names(monkeypatch):
    """The names of the variables that the kernel proofs saturate, in
    order, as they run."""
    names, built = [], cox._u_last_order

    def recorded(ring, i, weights):
        names.append(ring.names[i])
        return built(ring, i, weights)

    monkeypatch.setattr(cox, "_u_last_order", recorded)
    return names
