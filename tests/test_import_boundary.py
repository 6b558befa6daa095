"""Import boundaries: the CLI parser, the shard router and the table
formatter load no NumPy.

The router process of ``ttm-cas serve --workers N`` reads each request's
JSON and forwards its bytes; it evaluates nothing. It routes on the
batcher's own group key, read by the one request reader both roles
share (``repro.serve.common.read_request``), so that reader must stay
NumPy-free too. Whatever the router imports it pays for at every boot
and holds for the life of the process, and each spawned worker
re-imports the CLI module too. So the router side (``repro.cli`` up to
its parser, ``repro.serve.shard`` up to a ``routing_key`` of every
endpoint, which runs the reader over each endpoint's fields, and a
``ShardConfig``) and a bare
``import repro`` must load neither NumPy nor the engine kernels nor the
experiments, nor the engine's heap policy (``repro.engine._heap``,
whose thresholds the router must not run under), nor the ``repro.obs``
modules the router never uses. The
``obs`` command's output helper, ``format_table``, loads no NumPy
either. Each check runs in a fresh interpreter, since this one has
imported everything.
"""

import json

import pytest

#: Modules none of the checks may load.
HEAVY = (
    "numpy",
    "repro.engine._heap",
    "repro.engine.portfolio",
    "repro.experiments",
    "repro.obs.manifest",
    "repro.obs.profile",
    "repro.obs.session",
)

#: One body per batched endpoint, each setting the fields its group key
#: reads.
ROUTED_BODIES = (
    (
        "evaluate",
        {
            "design": "a11",
            "capacity": {"7nm": 0.5},
            "queue_weeks": 3,
            "metrics": ["cas"],
        },
    ),
    ("mc", {"design": "zen2", "samples": 256, "seed": 3, "with_cost": False}),
    ("scenarios", {"design": "a11", "scenarios": ["fab-outage"]}),
    (
        "splits",
        {"design": {"library": "raven", "cores": 4}, "pairs": [["7nm", "28nm"]]},
    ),
)

CHECKS = {
    "cli_parser": "import repro.cli\nrepro.cli.build_parser()",
    "routing_key": (
        "import json\n"
        "from repro.serve.shard import routing_key\n"
        f"for endpoint, body in {ROUTED_BODIES!r}:\n"
        "    key = routing_key(endpoint, json.dumps(body).encode())\n"
        "    assert not key.startswith(b'opaque:'), key"
    ),
    "shard_config": "from repro.serve.shard import ShardConfig\nShardConfig()",
    "bare_import": "import repro",
    "format_table": (
        "from repro.analysis.tables import format_table\n"
        "format_table(['a'], [[1.5]])"
    ),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_router_side_loads_no_numpy(check, fresh_python):
    report = (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    assert json.loads(fresh_python(CHECKS[check] + report)) == []
