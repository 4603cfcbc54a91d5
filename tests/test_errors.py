import argparse

import pytest

from rsoskit import cli, elliptic, fusion, graded, groupoid, transfer
from rsoskit.elliptic import EllipticParams
from rsoskit.errors import TooLarge, check_budget
from rsoskit.rsos import ModelKind, build_vector_space
from rsoskit.suites import RunConfig

TAU = 0.9j
KIND = ModelKind.rsos(2, 5)
PARAMS = EllipticParams.rsos(2, 5, TAU)

# every named budget that refuses: (module, budget, a call over a limit of 1)
REFUSALS = {
    "alcove": (groupoid, "ALCOVE_BUDGET", lambda: groupoid.rsos_alcove(2, 5)),
    "summand": (graded, "SUMMAND_BUDGET", lambda: graded.tensor_space(
        build_vector_space(KIND), build_vector_space(KIND))),
    "theta-terms": (elliptic, "THETA_TERM_BUDGET",
                    lambda: elliptic.theta(0.0, TAU)),
    "spectrum": (fusion, "SPECTRUM_BUDGET",
                 lambda: fusion.verify_spectrum([1], 2, 5)),
    "psi-table": (fusion, "SPECTRUM_BUDGET",
                  lambda: fusion.psi_table(KIND)),
    "faces": (transfer, "FACE_BUDGET",
              lambda: transfer.partition_enumerate(2, 2, 0.3, KIND, PARAMS)),
    "fusion-rows": (cli, "FUSION_ROW_BUDGET", lambda: cli._rows_fusion(
        argparse.Namespace(), RunConfig(r=5))),
    "row-states": (transfer, "STATE_BUDGET", lambda: transfer._row_transfer_matrix(
        0.3, KIND, PARAMS, (0.0, 0.0))),
    "chain-states": (transfer, "STATE_BUDGET", lambda: transfer.vector_chain(
        KIND, PARAMS, (0.0, 0.3))),
}


@pytest.mark.parametrize("site", REFUSALS)
def test_every_budget_refuses_in_one_format(site, monkeypatch):
    module, name, call = REFUSALS[site]
    monkeypatch.setattr(module, name, 1)
    with pytest.raises(TooLarge,
                       match=rf"^{name}: \d+ [a-z -]+ requested, limit 1$"):
        call()


def test_check_budget_admits_its_limit():
    check_budget("X_BUDGET", 5, 5, "things")
    with pytest.raises(TooLarge, match="^X_BUDGET: 6 things requested, limit 5$"):
        check_budget("X_BUDGET", 6, 5, "things")
    with pytest.raises(TooLarge, match="^X_BUDGET: inf terms requested, limit 5$"):
        check_budget("X_BUDGET", float("inf"), 5, "terms")
