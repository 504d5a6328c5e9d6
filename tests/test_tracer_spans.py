"""The benchmark's span tracer (perfbench/spans.py) wraps
SpectralPropagator.evolve_grid as the span fock.propagate.  Every
truncated-space evolution goes through that one method, so a traced
probe current and a traced Fock oracle each record exactly one such
span, sized by the samples it sums."""

import numpy as np
import pytest

from lcdeco.circuit import params_from_dimensionless
from lcdeco.decoherence import decoherence_fock_oracle
from lcdeco.observables import current_numeric, sampling_limit
from test_tracer_contract import _load_spans

M = params_from_dimensionless(8.0, 0.35)

ROUTES = {
    "current_numeric": lambda ts: current_numeric(M, 3.0, ts, 64),
    "decoherence_fock_oracle":
        lambda ts: decoherence_fock_oracle(M, 3.0, ts, 64),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_each_route_records_one_propagate_span(route):
    spans = _load_spans()
    ts = np.arange(37) * sampling_limit(M) / 2
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op(1):
            ROUTES[route](ts)
    finally:
        tracer.uninstall()
    propagate = [attrs for _, _, name, _, _, _, attrs in tracer.spans
                 if name == "fock.propagate"]
    assert len(propagate) == 1
    assert propagate[0]["t"] == len(ts)
    named, _ = spans.layer_totals(tracer.spans)
    assert named["fock.propagate_s"] > 0.0
