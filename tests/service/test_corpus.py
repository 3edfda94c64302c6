"""The service's warm corpus against the campaign's declared figure jobs."""

from __future__ import annotations

import pytest

from repro.experiments import cli
from repro.experiments.common import Settings
from repro.service import corpus

SETTINGS = Settings.quick()


def hashes(jobs):
    return {job.content_hash() for job in jobs}


@pytest.mark.parametrize("figure", ["fig5", "fig6"])
def test_sweep_corpus_is_the_campaign_figure(figure):
    assert (hashes(corpus.figure_jobs([figure], SETTINGS))
            == hashes(cli.figure_jobs(figure, SETTINGS)))


def test_fig10_corpus_lacks_only_the_conservative_base():
    ours = hashes(corpus.figure_jobs(["fig10"], SETTINGS))
    campaign = cli.figure_jobs("fig10", SETTINGS)
    assert ours < hashes(campaign)
    assert [job.label for job in campaign
            if job.content_hash() not in ours] == ["Cons 8M4w"]
