"""Recorded sha256 digests of highlighted ``render`` output.

The benchmark's render digest covers one unhighlighted diagram only, so a
change to the merge genealogy could alter every ancestry overlay unseen.
These digests pin the CLI's stdout for models ``c`` and ``d`` on line and
cycle, as text and SVG, highlighted by site, by particle id and by particle
id under the arrow overlay, at two seeds.  Models ``a`` and ``b``, which
have no genealogy, are pinned under the arrow overlay alone.
"""

import contextlib
import hashlib
import io
import itertools

import pytest

from pcalab.cli import main
from pcalab.render import HIGHLIGHT_COLOR, HIGHLIGHT_GLYPH

BASE = ["--init", "full", "--width", "30", "--steps", "12"]

#: The site of the surviving particle with the largest ancestry, per
#: (boundary, seed); models c and d share their occupancy.
SITES = {("line", 0): 18, ("line", 1): 18, ("cycle", 0): 1, ("cycle", 1): 18}

#: Particle 35 is a merged child; particle 5 is a leaf.
VARIANTS = {
    "site": lambda boundary, seed: ["--highlight-site",
                                    str(SITES[boundary, seed])],
    "particle": lambda boundary, seed: ["--highlight-particle", "35"],
    "arrows": lambda boundary, seed: ["--arrows", "--highlight-particle", "5"],
}

CASES = [f"{m}-{b}-{f}-{v}-{s}" for m, b, f, v, s in itertools.product(
    "cd", ("line", "cycle"), ("text", "svg"), VARIANTS, (0, 1))]

#: Recorded before the genealogy was replayed from the trajectory.
DIGESTS = {
    "c-line-text-site-0": "78892ddce426872e200033e09a73f95d592d7db18ff2bdfb7fbdda1ef50683bf",
    "c-line-text-site-1": "ca393c5f98c0918f1d0763a65c86e4779ea913c9c84612b5135de03c068d673f",
    "c-line-text-particle-0": "442ae4694de403456089019cdddec9d5581e12d079ab495a27dd53fc9e173814",
    "c-line-text-particle-1": "e37151a5fc5ec853ca39621b20d26802f32c728d936355d08297f3985b611d36",
    "c-line-text-arrows-0": "dfc8f9ddc36e57e1430ab4f49be23e09e09cac8718765c1dd55889fbe3b3c91a",
    "c-line-text-arrows-1": "0de37e44caf37924993392aa588ab67731c5b9599040529b117566eccbec8e2f",
    "c-line-svg-site-0": "2ca5bab0ddb7da60f1263136259107b1efac9db87c2b8f48d4b82c901a480f84",
    "c-line-svg-site-1": "144e40c9aaa2444e3c130c83fe5455c339634924d97656463a837c77a5ec3c3f",
    "c-line-svg-particle-0": "cf83d6a7652e26c263b1a8f675b2cb95e4310f52af104927cfd81e0beb86fd52",
    "c-line-svg-particle-1": "65a477ae418b0056a96b9fa176997fdcc89e41bf12c6e6be35039429a3198e99",
    "c-line-svg-arrows-0": "0683a56f9a3c11d65511abad9126b4698e8176648aff2be06b57e98264104f90",
    "c-line-svg-arrows-1": "cb57d904e0d3de11b0eda465e93e479428c8dacdd283eb2f7854ec8c90f8a736",
    "c-cycle-text-site-0": "4d73a19f9482cc746979545dab54685b8a02ec036c9b2b3c6e98d13f2e62991c",
    "c-cycle-text-site-1": "b6a01491ddb9510e1d50a2e999431812a86cb56f475d6ceba334511bc3753d10",
    "c-cycle-text-particle-0": "e1c4dd070a57857071e3b3c884d8453f0a63372bed788e7632dafd87abf89d25",
    "c-cycle-text-particle-1": "2b86d4fbfe7dc2f784f69c48680fca786917e7c2a8152016fa48b1566238d4a0",
    "c-cycle-text-arrows-0": "de80772f679b61213a1394d004c87446959daf64e3323a1fb437f2d4dc40d6f5",
    "c-cycle-text-arrows-1": "8ab13ae44c81e89170f136dad5a838957e3ad39b78dbf8e234a23c22917dcfc9",
    "c-cycle-svg-site-0": "58c706491c65d18b1522af475ffcea7c56ed9297c7b7909177df1dc6b9912c98",
    "c-cycle-svg-site-1": "8dacb258d771edbd92d22feb9eb813153efb5d259899f8f54cf67a744b6646f8",
    "c-cycle-svg-particle-0": "9b23a1405cf73558f25d50bd71e2e1ad8e0ed3e272ffce1c6e959a4cc76a2454",
    "c-cycle-svg-particle-1": "ca2d64dec5b005f693389710c2db9d50835e50feb00723b15bbd4914cd515f8a",
    "c-cycle-svg-arrows-0": "f724bca7651012bfd6f34f1129955bcf0cd3703fe03a081c83a426175c612854",
    "c-cycle-svg-arrows-1": "80d147d6844cf5610dd822fb2a691ccc8956477ef20b9e7f0d03399c029c9ae8",
    "d-line-text-site-0": "dc1c76d6cb8b75e8a21bdb67066ae1eddc8b1a2bd54fa375f5f0b83eb2d14112",
    "d-line-text-site-1": "8fb1931505dad37bc86b4a7ca7eca54fa507aadf5bf3356f3c6e726fbf8d095c",
    "d-line-text-particle-0": "78524ee4441ce7e2c8890425bde562d24628410c610567f795a2caeea7855ebd",
    "d-line-text-particle-1": "f55c0aad021e7fffb7a08bb40bfa29f85390f02ce8c0104431173e5f87d014ca",
    "d-line-text-arrows-0": "88f8cc97caad8c9457faf6452d64f4080c81d290ae7f9baa79011be17d2d9c87",
    "d-line-text-arrows-1": "6742d606a919f82083404ee7d011d51ab293294000244504403801f09e6e5364",
    "d-line-svg-site-0": "f103c8a0d8090ffd74f57243927e3df7557974acaafbc9631afb87b2d295d6da",
    "d-line-svg-site-1": "7256496ab8f1843aed78032eb9020e24f8cf96f1a8034eb20c520f422025eba6",
    "d-line-svg-particle-0": "2658c0f4ba3a8bc6f4c8afc96039e776a3980ba616e119cf2740262bc9b7cc71",
    "d-line-svg-particle-1": "e89eb3d8878be618382a704ced5c2af1eeca4daed35a4ed5705360e32725eda5",
    "d-line-svg-arrows-0": "40b7b5014fc121d872bf49064f0ae1d4597d96136406e468c34506a3fd8334d4",
    "d-line-svg-arrows-1": "e1a4b93ccd1e7900f3300560c17f7facfe376a55c2f7c07ceac7113466700e24",
    "d-cycle-text-site-0": "e63590f18f8834eef902dc8a45edda6e74ccd6a86ff166b30a3feb0d415068f1",
    "d-cycle-text-site-1": "f1ddfb9b13224cda8e822a128bc4c91c7653da896bd50e8219e28470c487f342",
    "d-cycle-text-particle-0": "466b1c1b33316d132cf6f743650d197cabf718e6c97b30e317ac25ada0ed4fc7",
    "d-cycle-text-particle-1": "8914ef6123d6d3dea5621f4d4f10edb96f16cfb4e129184c33a71398c9a30a72",
    "d-cycle-text-arrows-0": "37905253d67dddeb778894ec3777467aef38e1869f5389b154aca993a8ed45f3",
    "d-cycle-text-arrows-1": "fea47b8d19360bd81b8a7b7f9926c6b3aee2168097ae7d5870f968c2726bed06",
    "d-cycle-svg-site-0": "01a36bc85873ef0e655f9841ead1f5f8a374d83ad63c5296918320392772365b",
    "d-cycle-svg-site-1": "b86b4dcfa229ebd823111ecc8512124d5212d97f756ef0e7cc8f8c261ae46509",
    "d-cycle-svg-particle-0": "52d7d811741c81e712479b81fbe4c635587f213c856b19a3f693467cc520a43b",
    "d-cycle-svg-particle-1": "721713db23794f9d641a565f5268360d1d3ca0fae1755566f0f23be6f8346067",
    "d-cycle-svg-arrows-0": "da90c1c1f18b175be57905a44d620955f56c9bf1a14315c73155d33de7dbc3f5",
    "d-cycle-svg-arrows-1": "3299540bc9760e1209d358c92c3188372ee6cf1e39f9102b756c4f6cb6c9abd7",
}


def _argv(case: str) -> list[str]:
    model, boundary, fmt, variant, seed = case.split("-")
    return (["render", "--model", model, "--boundary", boundary,
             "--format", fmt, "--seed", seed, *BASE]
            + VARIANTS[variant](boundary, int(seed)))


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_highlighted_render_is_pinned(case):
    out = _stdout(_argv(case))
    mark = HIGHLIGHT_GLYPH if "-text-" in case else HIGHLIGHT_COLOR
    assert mark in out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[case]


#: Models without a genealogy, by (model, init): drawn with ``--arrows``.
PLAIN_INITS = (("a", "uniform"), ("a", "alternating"), ("b", "full"))

PLAIN_CASES = [f"{m}-{i}-{b}-{f}-{s}" for (m, i), b, f, s in itertools.product(
    PLAIN_INITS, ("line", "cycle"), ("text", "svg"), (0, 1))]

#: Recorded before the rows were built by one join per row.
PLAIN_DIGESTS = {
    "a-uniform-line-text-0": "dab12601d443a4ce3d56b14af8ab737ba6be7f4f27eb1dbb1dcc1353cd3d1219",
    "a-uniform-line-text-1": "5af74f11f6901c21a3e232eb3004cb9c5277709abaea93914685413db5226315",
    "a-uniform-line-svg-0": "89359d4ae437c5db79ea8f4c7274f9212b47eb6269a5aa47a13f2397ab8b17cd",
    "a-uniform-line-svg-1": "b5a51f78e8ec7d35930a6996f4cc7b7e3e3ab234941046ee9624f8f47e579c5c",
    "a-uniform-cycle-text-0": "ed89b15b4c77e137101b268d8e07628beaff207cbd11fa70eb3ba01a3ac03e83",
    "a-uniform-cycle-text-1": "5f57862b9c42f0b96038c65d2efcdb167451b5cdf91badbb22bce5076a71dfb5",
    "a-uniform-cycle-svg-0": "40d03893bd4bdabdd70fe66d3715f7c65aecbdbf5a995a1f22e1c0b352cd5294",
    "a-uniform-cycle-svg-1": "b519cf9b451c11ffb825e25b63634debba71ff267e2e277de9465237aaa8231e",
    "a-alternating-line-text-0": "e7c32b9558a805d5b717b83a9e86bd325357a049325193143f5b2e827d5dde48",
    "a-alternating-line-text-1": "d3a021ff9fdcf087b94a970e8c3132febf4ef51acfdff795d9b90275a9efe790",
    "a-alternating-line-svg-0": "fe1b14804bb62b6ae91f3003a3c071c25c6815c1b9f1d30ada5a424acf624ee6",
    "a-alternating-line-svg-1": "be29329ec856190d93d338ab8cbaf24912c354306721ddb520d9dab62e1007a7",
    "a-alternating-cycle-text-0": "b352158e1a021dffa3106d75f0e8d2ea1b90efdb0641c7a3532e53553635b0be",
    "a-alternating-cycle-text-1": "3073fbf1ed3ad775d37e60544b5a0f6f1f7e051b344e398b28503782315755eb",
    "a-alternating-cycle-svg-0": "0ad14769a5556ba027de39c3326732b3891471916ea5db705bb2694084290254",
    "a-alternating-cycle-svg-1": "0fb872b75af7914f1a055bdd15f5327978ca01304c993548b65dc5d406697dcb",
    "b-full-line-text-0": "ea35a3f89bdc521613f876bed1f20bc8870eaac94ddbf8bf8dbe358907bd0356",
    "b-full-line-text-1": "d6cbbcba1de44c0c03e73364abb34dfbafc40a286ddeaf24848bd54bdf08fc01",
    "b-full-line-svg-0": "7b7f7d2b2fe1104414c922f1ed202af2187d5aa67ccdd73bd42fbcb9d5b03e57",
    "b-full-line-svg-1": "4231cacf59823a25e33c837ad87e840528716dd7e781a5bc0ed18c911a611c35",
    "b-full-cycle-text-0": "6eccb9314c6f23baf5387f103c05ea9e97cf80a2652eaae023df31861e38695f",
    "b-full-cycle-text-1": "26c734baa331be6159b97dd98c79fa4e1e39d1d956d1513da8af4a2df4a4eec6",
    "b-full-cycle-svg-0": "f9e41d12048652f90da9c2bbb5003a4a207d690967b67335c23fa9b7c1250bf9",
    "b-full-cycle-svg-1": "961b13f0bab865458e8498afca1b9397ed5bb5988a9bc306408e96fa4f87d482",
}


@pytest.mark.parametrize("case", PLAIN_CASES)
def test_plain_render_is_pinned(case):
    model, init, boundary, fmt, seed = case.split("-")
    out = _stdout(["render", "--model", model, "--init", init,
                   "--boundary", boundary, "--format", fmt, "--seed", seed,
                   "--width", "30", "--steps", "12", "--arrows"])
    assert hashlib.sha256(out.encode()).hexdigest() == PLAIN_DIGESTS[case]
