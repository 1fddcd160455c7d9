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
