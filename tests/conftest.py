import pytest

from tvbcox import cox, gz


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


@pytest.fixture
def broken_confluence(monkeypatch):
    """The rewrite core with one fault: at n = 2 it leaves [-1],[{1},0]
    alone, so that word no longer reaches [{1},1],[-0], the canonical form
    of its group."""
    core, table = gz._rewrite, gz._codes(2)
    stuck = tuple(sorted(table.code[g] for g in gz.parse_word("[-1],[{1},0]")))

    def broken(word, n):
        if n == 2 and tuple(sorted(word)) == stuck:
            return stuck, []
        return core(word, n)

    monkeypatch.setattr(gz, "_rewrite", broken)
