"""The seeded suites draw the same instances and reach the same verdicts.

The digests below were recorded from run_suite before the suites were
reshaped into draw functions over one seeded trial loop. Each is the
sha256 of the verdict lines, in the form `vrips verify` prints them
above its summary, of all suites at six trials. No verdict line names
the cap, and every check passes at both caps, so a seed has one digest
for max-dim 1 and 2 alike.
"""

import hashlib

import pytest

from vrips import suites
from vrips.closure import Cover
from vrips.relations import Relation, SemiUniformBase
from vrips.suites import SUITE_NAMES, SuiteConfig, run_suite

DIGESTS = {
    0: "6f573d9c675caa61d0ec1a02686568a3cdf27ef7b78eac5160addfab03745eb7",
    1: "3afe1e358df68c8b1680ba293710c3e4aaa0347ee85a714435f9f48c3425b40b",
    2: "5eb61adaf6c7d229cb200853f94df137183acab16e203144931940de96eaf370",
    3: "1faac28a4eaac40c12a99a0321d476a78fcb5a525dc6301ef458f1e1e783f3f1",
    4: "ecb3242549bd94976918203c888704b7149cd03ea515d56fa8c57ba92e3c27de",
    5: "e3a4f9d5f4fc33ad2b5b8ec872e96b47ce22c267b77384a93b79a2b23991e7ca",
    6: "88aba92fb9f5764d0b579c98d61249c9b03d957e03758970f17dee91b91af0f4",
    7: "aca2b4f1c9892344d970024faf265a51ecda5bf9859c3bf509cb57c584e8816d",
}


def _line(v) -> str:
    text = f"{'PASS' if v.passed else 'FAIL'} {v.axiom}: {v.instance}"
    return text if v.passed else f"{text} | {v.witness}"


@pytest.mark.parametrize("max_dim", [1, 2])
@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_suite_verdicts_match_the_recorded_digests(seed, max_dim):
    verdicts = run_suite("all", SuiteConfig(seed=seed, trials=6, max_dim=max_dim))
    text = "\n".join(_line(v) for v in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[seed]


def test_all_runs_the_suites_in_table_order():
    config = SuiteConfig(seed=3, trials=2, max_dim=1)
    one_by_one = [v for name in SUITE_NAMES for v in run_suite(name, config)]
    assert run_suite("all", config) == one_by_one
    with pytest.raises(ValueError, match="choose from dimension, interval"):
        run_suite("nonesuch", config)


# The verdict lines above name only the sizes of what the homotopy, Dowker
# and functoriality suites draw. These digests pin the draws themselves: every
# argument that a draw function hands to a verify_* check, through the names
# that suites imports, recorded before any edit of the draws.
DRAW_DIGESTS = {
    (0, 1): "8292bd4d93dffb1428b7a177c8df2c6aa7f3e0a139915b5f88bd204594dbf9bc",
    (0, 2): "07caed4ed0bfb7bf93d1a40822dbddd649236880e4978e3817eaeb4bfff8eb52",
    (1, 1): "ead52fdb46b428edf74cb2383107f3fc7f78b7a8510cec6c63a5fcc482b3a65c",
    (1, 2): "4e166d4c12d1dfcb5eea7662d7795254613fb0a659227676c886c0b5c2152c09",
    (2, 1): "177d14b6a6bcff244b9c1b3bc63517ac642356e63295fdc523aea6fb5b691f56",
    (2, 2): "ff2c6051b6e1c96b42bf4652612eafb579b7658bab5c2f12ab4bd5b3cee3d17d",
    (3, 1): "4ba2faa19adf5bcfa61acce8b79107b93af3d3c97f0182c664978fe5e4aa0540",
    (3, 2): "32ccf50a7e176ad90b4dd3e8fc3ab54addb6d8412977abc5ede36059a22cb957",
    (4, 1): "6b0517e1765ac7d6999260f2d6f6d0724c81ce0f98f3a35069790bf28c534438",
    (4, 2): "9ef0771f3c67a5e1799754f39e422b33a3f9ebb8956db1d496b966ba612e703e",
    (5, 1): "982a2a873a429577cfe0c8f72bb92dbcb325667958d57bfe25553828692ff1cf",
    (5, 2): "f63b231756a93e56c773aa38a14df9326b86678170e87cd21605c3dda9c4df8c",
    (6, 1): "a92d3bdc6ca740ab041e2889b3ffafab3f564c7d5ae54ff93cd2dc77964ba1f9",
    (6, 2): "ab07e308058c0a081efa1c6b43a46b6a77498d84cd208739359dbcfbab3de3a7",
    (7, 1): "9a06b180d20fb9a61693c567806c85dcab806633fa7b5d5c25a986ffdaa68c8d",
    (7, 2): "07e4d2512ecdb0b015112633299ec168abdf07cb89b34fc9435679bfe2933416",
}

_DRAWN = {
    "excision": "verify_excision",
    "homotopy": "verify_homotopy_cylinder",
    "dowker": "verify_dowker",
    "functoriality": "verify_functoriality",
}


def _canon(x):
    """A plain, ordered form of one argument: relations as sorted pairs,
    bases as their members, covers as sorted sets."""
    if isinstance(x, Relation):
        return ["relation", list(x.space.labels), sorted(x.pairs)]
    if isinstance(x, SemiUniformBase):
        return ["base", [_canon(m) for m in x.members]]
    if isinstance(x, Cover):
        return ["cover", list(x.space.labels), [sorted(s) for s in x.sets]]
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if isinstance(x, (list, tuple)):
        return [_canon(y) for y in x]
    return repr(x)


def _draw_digest(monkeypatch, seed: int, max_dim: int) -> str:
    calls = []
    for name in _DRAWN.values():
        monkeypatch.setattr(suites, name, lambda *args, _name=name, **kw: calls.append(
            [_name, _canon(args), sorted((k, _canon(v)) for k, v in kw.items())]))
    for suite in _DRAWN:
        run_suite(suite, SuiteConfig(seed=seed, trials=6, max_dim=max_dim))
    assert [c[0] for c in calls] == [name for name in _DRAWN.values() for _ in range(6)]
    return hashlib.sha256(repr(calls).encode()).hexdigest()


@pytest.mark.parametrize("max_dim", [1, 2])
@pytest.mark.parametrize("seed", range(8))
def test_suite_draws_match_the_recorded_digests(monkeypatch, seed, max_dim):
    assert _draw_digest(monkeypatch, seed, max_dim) == DRAW_DIGESTS[seed, max_dim]
