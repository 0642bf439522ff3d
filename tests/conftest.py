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


def _stick(monkeypatch, n, *texts):
    """Give the mark moves, the rewrite core that canonicalize and the
    sweep share, one fault at n: each word of texts, whose flags already
    form a chain, is left alone, so it no longer reaches the canonical form
    of its group."""
    core, table = gz._move_marks, gz._codes(n)
    stuck = {tuple(sorted(table.code[g] for g in gz.parse_word(text))) for text in texts}

    def broken(t, word, m, steps):
        return word if m == n and word in stuck else core(t, word, m, steps)

    monkeypatch.setattr(gz, "_move_marks", broken)


@pytest.fixture
def broken_confluence(monkeypatch):
    """At n = 2 the rewrite core leaves [-1],[{1},0] alone, so that word no
    longer reaches [{1},1],[-0], the canonical form of its group."""
    _stick(monkeypatch, 2, "[-1],[{1},0]")


@pytest.fixture
def twice_broken_confluence(monkeypatch):
    """At n = 3 the rewrite core leaves one word alone in each of two
    groups: [-2],[{1,2},0] in the group that [-0],[{1,2},2] opens, and
    [-1],[{1,3},0], met first, in the later group of [-0],[{1,3},1]."""
    _stick(monkeypatch, 3, "[-2],[{1,2},0]", "[-1],[{1,3},0]")
