"""supcon: a numerical laboratory for supremal (L-infinity) convexity notions.

Envelope operators (convex, level-convex lsc, lamination, Pasch-Hausdorff,
power-law brackets), checker/disproof searches for the convexity notions of
supremal variational problems, the laminate-side inequality with the periodic
and small-boundary test-field searches, and a 1-d finite-element power-law
experiment.
"""

from .matspace import is_rank_one_connected, minors_batch, tau
from .funcspace import (CorpusEntry, GridSpec, SampledFunction, corpus_entry,
                        corpus_names, eval_corpus, interpolate, load_csv,
                        sample, save_csv)
from .envelope import (PowerLawReport, convex_envelope, lamination_hull,
                       level_convex_lsc_envelope, pasch_hausdorff,
                       power_law_envelope)
from .classify import (ClassifyConfig, Report, Verdict, check_level_convex,
                       check_polyquasiconvex_necessary, check_rank_one_qcx,
                       check_supremal_jensen, classify_report, replay_witness,
                       search_weak_morrey_violation, two_atom_measures)
from .laminate import (check_curl_young_on_laminates,
                       check_periodic_weak_morrey,
                       search_strong_morrey_violation)
from .fem1d import (FeMinimizeResult, FeOptions, GammaReport, envelope_oracle_1d,
                    gamma_limit_experiment, minimize_Fp)

__version__ = "0.1.0"
