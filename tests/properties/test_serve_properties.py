"""Hypothesis properties of the fused point-evaluation path.

The serving layer's determinism guarantee reduces to two laws of
:func:`repro.engine.fused_point_eval`, checked here on randomized
request mixes with *exact* float equality (the wire contract is
byte-identity of canonical JSON, which is equality of the floats):

* **arrival-order invariance** — permuting a compatible request batch
  permutes the results and changes nothing else;
* **batch-composition invariance** — evaluating a request solo, or
  inside any partition of any superset batch, yields identical numbers.

Together these mean a tenant can never observe who else was coalesced
into their batch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.model import CostModel
from repro.design.library.a11 import a11
from repro.design.library.raven import raven_multicore
from repro.design.library.zen2 import zen2, zen2_monolithic
from repro.engine import PointRequest, fused_point_eval
from repro.ttm.model import TTMModel

MODEL = TTMModel.nominal()
COST = CostModel.nominal(MODEL.foundry.technology)

#: Interned once, as ServeState would — mixed node counts on purpose.
DESIGN_POOL = (
    a11("7nm"),
    a11("28nm"),
    zen2(),
    zen2_monolithic("7nm"),
    raven_multicore(),
)

@st.composite
def compatible_batches(draw):
    """Batches sharing one supply-knob shape, as a coalescing group does.

    The server's group key pins :func:`point_signature`, so a fused
    batch always has one shape: capacity all-absent or all-present (and
    alike scalar/per-node), same for the other knobs. Values still vary
    per request.
    """
    size = draw(st.integers(min_value=1, max_value=8))
    has_capacity = draw(st.booleans())
    has_queue = draw(st.booleans())
    has_scales = draw(st.booleans())
    batch = []
    for _ in range(size):
        batch.append(
            PointRequest(
                design=draw(st.sampled_from(DESIGN_POOL)),
                n_chips=draw(st.floats(min_value=1e5, max_value=1e8)),
                capacity=(
                    draw(st.floats(min_value=0.05, max_value=1.0))
                    if has_capacity
                    else None
                ),
                queue_weeks=(
                    draw(st.floats(min_value=0.0, max_value=30.0))
                    if has_queue
                    else None
                ),
                d0_scale=(
                    draw(st.floats(min_value=0.5, max_value=2.0))
                    if has_scales
                    else None
                ),
                wafer_rate_scale=(
                    draw(st.floats(min_value=0.5, max_value=2.0))
                    if has_scales
                    else None
                ),
            )
        )
    return batch


batches = compatible_batches()


def evaluate(batch):
    return fused_point_eval(MODEL, COST, batch)


@settings(max_examples=25, deadline=None)
@given(batch=batches, data=st.data())
def test_arrival_order_is_unobservable(batch, data):
    order = data.draw(st.permutations(range(len(batch))))
    baseline = evaluate(batch)
    shuffled = evaluate([batch[i] for i in order])
    for position, i in enumerate(order):
        assert shuffled[position] == baseline[i]


@settings(max_examples=25, deadline=None)
@given(batch=batches, data=st.data())
def test_batch_composition_is_unobservable(batch, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(batch)))
    baseline = evaluate(batch)
    left = evaluate(batch[:cut]) if cut else []
    right = evaluate(batch[cut:]) if cut < len(batch) else []
    assert left + right == baseline


@settings(max_examples=25, deadline=None)
@given(batch=batches, index=st.data())
def test_solo_equals_any_coalesced_slot(batch, index):
    i = index.draw(st.integers(min_value=0, max_value=len(batch) - 1))
    fused = evaluate(batch)
    (solo,) = evaluate([batch[i]])
    assert solo == fused[i]


@settings(max_examples=15, deadline=None)
@given(batch=batches)
def test_duplicated_requests_share_one_answer(batch):
    doubled = list(batch) + list(batch)
    results = evaluate(doubled)
    assert results[: len(batch)] == results[len(batch):]
