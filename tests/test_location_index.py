"""The detector's per-location accessor index, built in one pass.

``RaceDetector._location_index`` takes each access block's
``{location: writes}`` from :meth:`HBNode.location_writes`, one scan of
the node.  The oracle below is the obvious definition, one
``node.locations()`` scan plus one ``node.writes_to(location)`` scan per
location: both must agree entry for entry, with coalescing on and off,
and the 15 Table-2 subjects must keep their pinned report digests.
"""

import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.registry import paper_app
from repro.core.graph import HBGraph
from repro.core.race_detector import RaceDetector
from repro.obs import report_digest
from tests.test_property import run_random_app


def per_location_scan(graph: HBGraph) -> dict:
    """The index as the per-location scan computed it."""
    index = {}
    for node in graph.nodes:
        if not node.is_access_block:
            continue
        bit = 1 << node.node_id
        scope = (node.thread, node.task)
        for location in node.locations():
            entry = index.get(location)
            if entry is None:
                entry = index[location] = [[], 0, 0, {}]
            writes = node.writes_to(location)
            entry[0].append((node, writes))
            entry[1] |= bit
            if writes:
                entry[2] |= bit
            entry[3][scope] = entry[3].get(scope, 0) | bit
    return {location: tuple(entry) for location, entry in index.items()}


def one_pass(trace, graph: HBGraph) -> dict:
    detector = RaceDetector(trace)
    return detector._location_index(types.SimpleNamespace(graph=graph))


def comparable(index: dict) -> list:
    """Entries in index order, nodes replaced by their ids."""
    return [
        (location, [(node.node_id, writes) for node, writes in accessors], access, write, scopes)
        for location, (accessors, access, write, scopes) in index.items()
    ]


@given(seed=st.integers(min_value=0, max_value=10_000), coalesce=st.booleans())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_pass_index_equals_the_per_location_scan(seed, coalesce):
    trace = run_random_app(seed).build_trace()
    graph = HBGraph(trace, coalesce=coalesce)
    assert comparable(one_pass(trace, graph)) == comparable(per_location_scan(graph))


def test_location_writes_matches_the_node_helpers():
    trace = run_random_app(7).build_trace()
    for node in HBGraph(trace).nodes:
        summary = node.location_writes()
        assert list(summary) == node.locations()
        for location, writes in summary.items():
            assert writes == node.writes_to(location)


#: ``(canonical trace digest, report digest on bitmask, on chains)`` of
#: each Table-2 subject at scale 0.1, schedule seed 1.  Cache keys, store
#: paths and history-gate keys are built from these digests, so a
#: performance change must leave every one of them as it is.
SUBJECT_DIGESTS = {
    "Aard Dictionary": (
        "33765cb773fbf1108072b5087e1375b014d11376dc4ccea1cdf75877b1b96c8c",
        "55f64ba6dc3c149baff3deaa6e01ff5294e281b9626c9403186b710b6f99294a",
        "9572d1fdd8c9f3895c30bfb6e66c24b1c7c3d34b22d51d3f5b15f15faf47ee45",
    ),
    "Adobe Reader": (
        "8d63d58265e6635b8032849c59bf03c2be009c7b5c29a53029b151fd5b06a9f2",
        "fcdf608c5f7d7d474109661999639c5290ef9e9f34425e441c496f89d7bc54c8",
        "707b55247c36b075d426a8b985f244b6926ad0cc32fbc9afc1e47ae6d3efb791",
    ),
    "Browser": (
        "f75b7438bcbdbca9e0002bd0819bf400eda20143c94e4752d951fc01841c70a1",
        "c55c8fec8e2dcc27dff0b3deaf0ea30b55867d2ce484bb33478da6fc7e834f44",
        "b3ef6028c5afac51d528d56f61eef8fc8cf08ee41d58a9be485fe599d9915deb",
    ),
    "FBReader": (
        "8b6b68a737dc8f5e38cde8bb87d5ef4618a3c26c237f4c8b5b4f25f250f6680d",
        "f6248146d22349ab70e29454b93e9a2229ce51ddc1f6642bcfcaeb343778f2c9",
        "9e95faa213fe45653b4dd82776f5c8ac039e2962f387d69db2d77dc1f548f99b",
    ),
    "Facebook": (
        "60a3683267e2b7b5a10425a959182b7ab9593a53303097dc339a76b8a0b9f7ca",
        "86ab7319e766e8397fb64a48a6c57147daf40884078c8a346cfd377025734adc",
        "a24462dfbcbbc779b915165b283920678b6d83fc43f841306aa72314d4d7b164",
    ),
    "Flipkart": (
        "af2b7673eb339a9215689f037fcdef3f19f7ed6a30c22e103b2155eb6d29283d",
        "a009ca6a5a34fc9d6bb30cff7c8388481732d9388e14a35bb1907968c3783393",
        "df66744b42fb9750d173befd0ec9467adfa65b164185ed892dc307a9ceb33558",
    ),
    "K-9 Mail": (
        "098ebeadec8639279e3df94ada1d547d75f7e1e2e424edfa920cdaa135329d16",
        "cf1114216e384f0654bed7c81071eab64ac7b58adc6ddf3a9f4dc1a34d0e60dd",
        "0f394a5c51a2ecc7f022ea3e18c5277f311a0e4bda69058ff050eeee2d2eb74b",
    ),
    "Messenger": (
        "704d4ff3fa5838a6bbb4d45f174ed956d2c8342f296a92a749ed627b0135324d",
        "17558e5799ccddbcc06d5d3de65cc6077722f80cd69502e235a6fb1e2eb5c7dd",
        "84948170b052fc738e59760de1174368c6279d64c4f28811b788ecca058192d8",
    ),
    "Music Player": (
        "2b2eff2f69553e393d50325a0c498567e90a7e32d956141d3986be4dfd58c12c",
        "bedeea9833538ff69506c4a2b1a33bdc32350b9d6c9f2da6d660595ce6bde126",
        "504dac19ac37b7ff24a0daf0c8df946d75b07f0b7a3fc63512a9be5cbd6b74cc",
    ),
    "My Tracks": (
        "a24e86c1b14ea69ae6bcd5e6f9a611d58a86913ce6fc649d33f6153cdb8a51d0",
        "d4b45c41f5a2ee80160a38c55f863ba1bac8b5703c0936cfb1e47312497b4e44",
        "eb23a7d2c4162d44b0d3b9104dcb27c6f8eda12dca4676096d21979f1efff17a",
    ),
    "OpenSudoku": (
        "1d5030dc71d093f7cec737aa3ae3629a0f05e6757e80c98e7b020492ed9f17ee",
        "9df2a3d00686b9e27f59ec0d8bab3b58534941be79dc4b7c2d5d3cc6df8a61a0",
        "8b8b9df91edbbff80042ac2c6c42881ca81e3896d0b8cc60c4089265e4ba5cfc",
    ),
    "Remind Me": (
        "de730123b7bdeec3da29bd283b0672c5fb6df2311d0cc9b545b03ba32034dc2e",
        "a250d5cc725e28fab4ff2d8bb9dd8bfdeba945f9a6f2fd51bad2be51607fa882",
        "1d5b271dc045a05376e6668be131827a1b27290caa971a2f8642b77dcb500664",
    ),
    "SGTPuzzles": (
        "914470d2d251544d6eeb1cea9555f68873d557973ef8e9c0562d94e8d86d7654",
        "5a0bb0c37674cc4dce6c087c12ec2acdd7cef25ba62eaa671629799bbc2584e8",
        "19b948554714b829ded787e197585d4c9b7301d5d355b0e483666d6254313a99",
    ),
    "Tomdroid Notes": (
        "2d9b8a099d89fc69f1546b5a650ad068d84b9992df9ea08785a579080ad2bb34",
        "23ce172581f7b2c32bd66956b0f6acb22598b0ef5f12e5f30899766e81ea297c",
        "7a502da6ff8faeaf97e67e4ebf9bbd8c8a9eb4b322c83a23605ee2ad429c6d5e",
    ),
    "Twitter": (
        "4f90f9138ebdb8bfe55b70760e999dce12e125005f35f9ffb861e6c41d940f9d",
        "16115e7aa407a3e4d94221986b183ad124d8f604a5fc64d04b644ecb0093035e",
        "0f807c7b5a2fd29590ba860608e455abb0f47c64266c1e87d9f6ceb16b72fa12",
    ),
}


@pytest.mark.parametrize("subject", sorted(SUBJECT_DIGESTS))
def test_subject_report_digests_are_unchanged(subject):
    trace_digest, bitmask, chains = SUBJECT_DIGESTS[subject]
    _, trace = paper_app(subject, scale=0.1).run(seed=1)
    assert trace.canonical_digest() == trace_digest
    for backend, expected in (("bitmask", bitmask), ("chains", chains)):
        report = RaceDetector(trace, backend=backend).detect()
        assert report_digest(report.to_dict()) == expected, backend
