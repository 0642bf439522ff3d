import pytest

from tvbcox import cox, gz


@pytest.fixture
def saturated_names(monkeypatch):
    """The orbits the kernel proofs saturate, in order, as they run: one
    (first inverted member, free member) pair of names per orbit, the
    free member the variable that divides no lead of the proof's basis,
    None where the orbit has none."""
    names, found = [], cox._free_members

    def recorded(ring, leads, inverted, moves):
        free = found(ring, leads, inverted, moves)
        names.extend(free.items())
        return free

    monkeypatch.setattr(cox, "_free_members", recorded)
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
