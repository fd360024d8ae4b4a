"""Byte-identity pins for OP1 run alone, on every builder's output.

``test_optimizer_digests.py`` runs OP1 only after ``GOLCF+H1+H2``, where
it accepts a handful of rewrites. Here OP1 runs directly on AR, RDF,
GSDF and GOLCF schedules of paper instances (15 x 60 and 20 x 100,
2-4 replicas, constant or uniform sizes), with both scan policies. AR,
RDF and GSDF lists give OP1 about ten times more accepted rewrites, and
with them hoisted deletions (case iv) and re-pointed stranded transfers
(case iii). On AR and GSDF lists most cases have accepted rewrites
whose repair re-sources a transfer of an object other than the moved
one, which is what OP1's skip rule has to account for.

Each case compares the sha256 of the canonical builder schedule and of
OP1's output with a recorded value. A mismatch is a behaviour change of
OP1; the recorded values are never edited to make it pass.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import get_builder
from repro.core.optimizers.op1 import OP1ReorderTransfers
from repro.io.json_format import schedule_to_dict
from repro.model.instance import RtspInstance
from repro.serve.schemas import canonical_json
from repro.workloads.regular import paper_instance

BUILDERS = ("AR", "RDF", "GSDF", "GOLCF")
SHAPES = ((15, 60), (20, 100))


def _instance(servers: int, objects: int, replicas: int, uniform: bool) -> RtspInstance:
    return paper_instance(
        replicas=replicas,
        num_servers=servers,
        num_objects=objects,
        uniform_size_range=(1000.0, 5000.0) if uniform else None,
        rng=servers + 10 * replicas + uniform,
    )


CASES = {
    f"{m}x{n}-r{r}-{'uniform' if uniform else 'const'}-{builder}": (
        m, n, r, uniform, builder
    )
    for m, n in SHAPES
    for r in (2, 3, 4)
    for uniform in (False, True)
    for builder in BUILDERS
}


def _digest(schedule) -> str:
    payload = canonical_json(schedule_to_dict(schedule)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def op1_digests(case: str, restart: bool):
    """Digests of the builder's schedule and of OP1's output."""
    m, n, r, uniform, builder = CASES[case]
    inst = _instance(m, n, r, uniform)
    base = get_builder(builder).build(inst, rng=r)
    out = OP1ReorderTransfers(restart=restart).optimize(inst, base)
    return [_digest(base), _digest(out)]


#: Recorded values. A mismatch is a behaviour change of OP1.
EXPECTED = {
    ('15x60-r2-const-AR', True): ['b353e3713560af25', '85aa6789bbead7b5'],
    ('15x60-r2-const-AR', False): ['b353e3713560af25', '85aa6789bbead7b5'],
    ('15x60-r2-const-GOLCF', True): ['07007af568f78147', '07007af568f78147'],
    ('15x60-r2-const-GOLCF', False): ['07007af568f78147', '07007af568f78147'],
    ('15x60-r2-const-GSDF', True): ['1ee2cd0c9238dc5c', '6ef5ac72d2829cae'],
    ('15x60-r2-const-GSDF', False): ['1ee2cd0c9238dc5c', '6ef5ac72d2829cae'],
    ('15x60-r2-const-RDF', True): ['708800fed631100b', '708800fed631100b'],
    ('15x60-r2-const-RDF', False): ['708800fed631100b', '708800fed631100b'],
    ('15x60-r2-uniform-AR', True): ['28d56ab61d9e9ff8', '5afe69caed8f0256'],
    ('15x60-r2-uniform-AR', False): ['28d56ab61d9e9ff8', '5afe69caed8f0256'],
    ('15x60-r2-uniform-GOLCF', True): ['4cda78984b29f170', '4cda78984b29f170'],
    ('15x60-r2-uniform-GOLCF', False): ['4cda78984b29f170', '4cda78984b29f170'],
    ('15x60-r2-uniform-GSDF', True): ['19c882bebcd5c369', '963ef1b9d9e53e6b'],
    ('15x60-r2-uniform-GSDF', False): ['19c882bebcd5c369', '963ef1b9d9e53e6b'],
    ('15x60-r2-uniform-RDF', True): ['41c47b849654f37d', '41c47b849654f37d'],
    ('15x60-r2-uniform-RDF', False): ['41c47b849654f37d', '41c47b849654f37d'],
    ('15x60-r3-const-AR', True): ['61f91b2b42307d60', '1e4f02a3c503b962'],
    ('15x60-r3-const-AR', False): ['61f91b2b42307d60', '1e4f02a3c503b962'],
    ('15x60-r3-const-GOLCF', True): ['5c6d53051c4061e8', '5c6d53051c4061e8'],
    ('15x60-r3-const-GOLCF', False): ['5c6d53051c4061e8', '5c6d53051c4061e8'],
    ('15x60-r3-const-GSDF', True): ['a827166e76823400', '73cac1cf67c79505'],
    ('15x60-r3-const-GSDF', False): ['a827166e76823400', '73cac1cf67c79505'],
    ('15x60-r3-const-RDF', True): ['0393fdc33f2b1cef', 'd94a40ed24bce027'],
    ('15x60-r3-const-RDF', False): ['0393fdc33f2b1cef', 'd94a40ed24bce027'],
    ('15x60-r3-uniform-AR', True): ['73cadba10b84e25e', '7010743502303a3e'],
    ('15x60-r3-uniform-AR', False): ['73cadba10b84e25e', '7010743502303a3e'],
    ('15x60-r3-uniform-GOLCF', True): ['3f769e0ab6319cd6', '3f769e0ab6319cd6'],
    ('15x60-r3-uniform-GOLCF', False): ['3f769e0ab6319cd6', '3f769e0ab6319cd6'],
    ('15x60-r3-uniform-GSDF', True): ['4d8e9aab433cc296', '25aecfc807460d31'],
    ('15x60-r3-uniform-GSDF', False): ['4d8e9aab433cc296', '25aecfc807460d31'],
    ('15x60-r3-uniform-RDF', True): ['6cc10565a3f53925', 'df52cbf1a1b2f9b6'],
    ('15x60-r3-uniform-RDF', False): ['6cc10565a3f53925', 'df52cbf1a1b2f9b6'],
    ('15x60-r4-const-AR', True): ['baa79d151d589acc', 'e75cee3333e73815'],
    ('15x60-r4-const-AR', False): ['baa79d151d589acc', 'e75cee3333e73815'],
    ('15x60-r4-const-GOLCF', True): ['518e0e2877ff426a', '518e0e2877ff426a'],
    ('15x60-r4-const-GOLCF', False): ['518e0e2877ff426a', '518e0e2877ff426a'],
    ('15x60-r4-const-GSDF', True): ['a31d36b486fd144c', 'c223f0d2c3e64267'],
    ('15x60-r4-const-GSDF', False): ['a31d36b486fd144c', 'e02fc5bb87329999'],
    ('15x60-r4-const-RDF', True): ['02f279718e405e18', 'ab7ee703f56646de'],
    ('15x60-r4-const-RDF', False): ['02f279718e405e18', 'ab7ee703f56646de'],
    ('15x60-r4-uniform-AR', True): ['1a8c4a7edd7e5196', '5ab2f904412c814f'],
    ('15x60-r4-uniform-AR', False): ['1a8c4a7edd7e5196', '5ab2f904412c814f'],
    ('15x60-r4-uniform-GOLCF', True): ['e9741dde1234b5bb', 'e9741dde1234b5bb'],
    ('15x60-r4-uniform-GOLCF', False): ['e9741dde1234b5bb', 'e9741dde1234b5bb'],
    ('15x60-r4-uniform-GSDF', True): ['2162566c4c993a61', '4a4bcdd16781a5cb'],
    ('15x60-r4-uniform-GSDF', False): ['2162566c4c993a61', 'afc0d571eba047c2'],
    ('15x60-r4-uniform-RDF', True): ['a1b04b5a12f52249', '1f79b42973cf8493'],
    ('15x60-r4-uniform-RDF', False): ['a1b04b5a12f52249', '1f79b42973cf8493'],
    ('20x100-r2-const-AR', True): ['6fc985391d27a670', '980f7e7bdffa1fe5'],
    ('20x100-r2-const-AR', False): ['6fc985391d27a670', '980f7e7bdffa1fe5'],
    ('20x100-r2-const-GOLCF', True): ['40daea34ebca0a46', '40daea34ebca0a46'],
    ('20x100-r2-const-GOLCF', False): ['40daea34ebca0a46', '40daea34ebca0a46'],
    ('20x100-r2-const-GSDF', True): ['691a2a761c9df41a', '78b696e2905f61b2'],
    ('20x100-r2-const-GSDF', False): ['691a2a761c9df41a', '78b696e2905f61b2'],
    ('20x100-r2-const-RDF', True): ['e0c06bb1341dc088', 'e0c06bb1341dc088'],
    ('20x100-r2-const-RDF', False): ['e0c06bb1341dc088', 'e0c06bb1341dc088'],
    ('20x100-r2-uniform-AR', True): ['150834e69663ac02', '74b0044b60e314bd'],
    ('20x100-r2-uniform-AR', False): ['150834e69663ac02', '74b0044b60e314bd'],
    ('20x100-r2-uniform-GOLCF', True): ['6ba4f16f78f577a3', '6ba4f16f78f577a3'],
    ('20x100-r2-uniform-GOLCF', False): ['6ba4f16f78f577a3', '6ba4f16f78f577a3'],
    ('20x100-r2-uniform-GSDF', True): ['9554e585a6563d1c', '105ea5bdf02fe2e9'],
    ('20x100-r2-uniform-GSDF', False): ['9554e585a6563d1c', '105ea5bdf02fe2e9'],
    ('20x100-r2-uniform-RDF', True): ['4550ceadf054ba73', '4550ceadf054ba73'],
    ('20x100-r2-uniform-RDF', False): ['4550ceadf054ba73', '4550ceadf054ba73'],
    ('20x100-r3-const-AR', True): ['b16dbe9e1e3e0eb1', '253b2a4e4041b0d9'],
    ('20x100-r3-const-AR', False): ['b16dbe9e1e3e0eb1', '253b2a4e4041b0d9'],
    ('20x100-r3-const-GOLCF', True): ['40653bf032f35737', '40653bf032f35737'],
    ('20x100-r3-const-GOLCF', False): ['40653bf032f35737', '40653bf032f35737'],
    ('20x100-r3-const-GSDF', True): ['4b2d79859f9e7291', 'abeb5b454e13ebfd'],
    ('20x100-r3-const-GSDF', False): ['4b2d79859f9e7291', 'abeb5b454e13ebfd'],
    ('20x100-r3-const-RDF', True): ['b79e48e8b9423522', 'fff58b7e9bd1d52e'],
    ('20x100-r3-const-RDF', False): ['b79e48e8b9423522', 'fff58b7e9bd1d52e'],
    ('20x100-r3-uniform-AR', True): ['6572e13db327b897', '88436b05a5bb676e'],
    ('20x100-r3-uniform-AR', False): ['6572e13db327b897', '26950bba61b31e54'],
    ('20x100-r3-uniform-GOLCF', True): ['a91473ee43fabd22', 'a91473ee43fabd22'],
    ('20x100-r3-uniform-GOLCF', False): ['a91473ee43fabd22', 'a91473ee43fabd22'],
    ('20x100-r3-uniform-GSDF', True): ['cd034c358b516147', '72fb7e9313145ef0'],
    ('20x100-r3-uniform-GSDF', False): ['cd034c358b516147', '72fb7e9313145ef0'],
    ('20x100-r3-uniform-RDF', True): ['9b481820bfc84d48', '2282cf1ff95b1bda'],
    ('20x100-r3-uniform-RDF', False): ['9b481820bfc84d48', '2282cf1ff95b1bda'],
    ('20x100-r4-const-AR', True): ['5e780a25d26b32fd', '2cff0c0129eaa8e1'],
    ('20x100-r4-const-AR', False): ['5e780a25d26b32fd', '97d0193b183e64bb'],
    ('20x100-r4-const-GOLCF', True): ['b8e52c8fc86083f3', 'b8e52c8fc86083f3'],
    ('20x100-r4-const-GOLCF', False): ['b8e52c8fc86083f3', 'b8e52c8fc86083f3'],
    ('20x100-r4-const-GSDF', True): ['4b8f9529183a7bc6', '7cfb0e13f59d635d'],
    ('20x100-r4-const-GSDF', False): ['4b8f9529183a7bc6', '7cfb0e13f59d635d'],
    ('20x100-r4-const-RDF', True): ['9b6bf84d8a308a51', '7207d13490289fa4'],
    ('20x100-r4-const-RDF', False): ['9b6bf84d8a308a51', '7207d13490289fa4'],
    ('20x100-r4-uniform-AR', True): ['02a25b90974c4020', '9ef6b5c8f95e368e'],
    ('20x100-r4-uniform-AR', False): ['02a25b90974c4020', '9ef6b5c8f95e368e'],
    ('20x100-r4-uniform-GOLCF', True): ['1564e7150df3f4c4', '1564e7150df3f4c4'],
    ('20x100-r4-uniform-GOLCF', False): ['1564e7150df3f4c4', '1564e7150df3f4c4'],
    ('20x100-r4-uniform-GSDF', True): ['3122ecd688e393db', '8a96e06ddff02de5'],
    ('20x100-r4-uniform-GSDF', False): ['3122ecd688e393db', '8a96e06ddff02de5'],
    ('20x100-r4-uniform-RDF', True): ['ac2919bfa8b03191', '861bda5885925350'],
    ('20x100-r4-uniform-RDF', False): ['ac2919bfa8b03191', '861bda5885925350'],
}


@pytest.mark.parametrize("restart", [True, False], ids=["restart", "continue"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_op1_digests_pinned(case, restart):
    assert op1_digests(case, restart) == EXPECTED[case, restart]
