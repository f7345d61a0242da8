"""Campaign subsystem: declarative sweeps, a parallel runner, and caching.

A *campaign* is a grid of simulation points — (benchmark x predictor x
predictor-config x hierarchy-config x trace-length x seed) — described by
a :class:`SweepSpec` and executed by a :class:`CampaignRunner`.  The
runner fans points out across a process pool, memoises every completed
point in a content-addressed :class:`ResultCache` under ``.repro_cache/``
(keyed by a stable hash of the point plus the package version), and can
persist per-campaign JSON/CSV summaries through an :class:`ArtifactStore`.

All the figure/table experiment drivers route their sweeps through this
subsystem, so regenerating any figure is incremental and parallel;
``python -m repro sweep`` and ``python -m repro figures`` expose the
same machinery from the command line.
"""

from repro.campaign.artifacts import ArtifactStore
from repro.campaign.cache import ResultCache, default_cache_dir
from repro.campaign.configs import decode_config, encode_config
from repro.campaign.runner import CampaignResult, CampaignRunner, default_jobs, execute_point, run_campaign
from repro.campaign.spec import PointSpec, PredictorVariant, SweepSpec
from repro.resilience import CampaignJournal, FaultPlan, PointFailed, PointTimeout, RetryPolicy

__all__ = [
    "ArtifactStore",
    "CampaignJournal",
    "CampaignResult",
    "CampaignRunner",
    "FaultPlan",
    "PointFailed",
    "PointSpec",
    "PointTimeout",
    "PredictorVariant",
    "ResultCache",
    "RetryPolicy",
    "SweepSpec",
    "decode_config",
    "default_cache_dir",
    "default_jobs",
    "encode_config",
    "execute_point",
    "run_campaign",
]
